"""Floating root finding with exact cross-checks.

Roots come from a simultaneous Aberth iteration in double precision.  Above
POLISH_DEGREE_THRESHOLD each is polished to its correctly rounded double:
a float64 Newton step with a compensated residual decides most roots, and
40-digit mpmath Newton the rest.  The real/complex split is never trusted on
its own: the count of real roots must match the exact Sturm count or
construction fails.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

import mpmath
import numpy as np

from .constants import ERDOS_TURAN_DEFAULT
from .intpoly import (
    IntPolynomial,
    _horner,
    _horner_with_derivative,
    multinacci,
    sturm_real_count,
)

MAX_ABERTH_ITERATIONS = 600
RESIDUAL_FACTOR = 1e-10
REAL_CLASSIFY_FACTOR = 1e-8
UNIT_CIRCLE_GUARD = 1e-9
POLISH_DEGREE_THRESHOLD = 100


class RootFindingError(RuntimeError):
    pass


class SignatureError(RuntimeError):
    pass


class InconclusiveError(RuntimeError):
    """A floating comparison fell inside its guard band; no verdict."""


@dataclass(frozen=True)
class ConjugateSet:
    """Certified roots of a monic irreducible polynomial.

    real_roots is sorted ascending; complex_reps holds one member per
    conjugate pair, imaginary part positive.
    """

    polynomial: IntPolynomial
    real_roots: Tuple[float, ...]
    complex_reps: Tuple[complex, ...]
    s: int
    t: int
    max_residual: float

    @property
    def degree(self) -> int:
        return self.polynomial.degree

    @property
    def signature(self) -> Tuple[int, int]:
        return (self.s, self.t)

    def all_roots(self) -> List[complex]:
        """Full root multiset: real roots, then each pair and its conjugate."""
        out: List[complex] = [complex(r, 0.0) for r in self.real_roots]
        for z in self.complex_reps:
            out.append(z)
            out.append(z.conjugate())
        return out

    def to_json_dict(self) -> dict:
        return {
            "polynomial": list(self.polynomial.coefficients),
            "real_roots": list(self.real_roots),
            "complex_representatives": [[z.real, z.imag] for z in self.complex_reps],
            "s": self.s,
            "t": self.t,
            "max_residual": self.max_residual,
        }


def _aberth(coeffs: Sequence[int]) -> np.ndarray:
    """All roots of the polynomial by Aberth-Ehrlich iteration.

    Deterministic start: a circle of radius max(|a0/an|^(1/n), 1/2) with a
    slight spiral so no starting point is real or conjugate-symmetric.
    """
    n = len(coeffs) - 1
    an = coeffs[-1]
    a0 = coeffs[0]
    radius = max(abs(a0 / an) ** (1.0 / n), 0.5) if a0 else 0.5
    k = np.arange(n)
    angles = 2.0 * np.pi * k / n + 0.7 / n + 0.3
    radii = radius * (1.0 + 0.05 * k / n)
    z = radii * np.exp(1j * angles)
    cf = [float(c) for c in coeffs]
    diff = np.empty((n, n), dtype=complex)  # z_i - z_j, then its reciprocal
    for _ in range(MAX_ABERTH_ITERATIONS):
        p, dp = _horner_with_derivative(cf, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p / dp
            np.subtract(z[:, None], z[None, :], out=diff)
            np.fill_diagonal(diff, np.inf)
            s = np.sum(np.divide(1.0, diff, out=diff), axis=1)
            w = newton / (1.0 - newton * s)
        w = np.nan_to_num(w, nan=0.0, posinf=0.0, neginf=0.0)
        z = z - w
        if np.max(np.abs(w) / (1.0 + np.abs(z))) < 1e-14:
            return z
    # The step can stall at the rounding floor above 1e-14, as on
    # (x-1)...(x-6) +- 1.  Keep the last iterate where each computed |f(z_i)|
    # is within the complex Horner error bound g·p~(|z_i|), p~ with
    # coefficients |a_i| (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., §5.1 and Lemma 3.5): z_i is then an exact root of
    # f with each a_i moved by at most a relative 2g.
    g = (4 * n + 2) * _UNIT / (1 - (4 * n + 2) * _UNIT)
    with np.errstate(all="ignore"):
        bound = g * _horner([abs(c) for c in cf], np.abs(z))
        if np.all(np.abs(_horner(cf, z)) <= bound) and np.all(np.isfinite(bound)):
            return z
    raise RootFindingError("root finding failed")


def _polish(coeffs: Sequence[int], roots: np.ndarray) -> np.ndarray:
    """Extended-precision Newton pass; rescues the last digits at high degree.

    Each root comes out correctly rounded to double, up to the 40-digit
    error. _fast_polish reproduces its output and calls it for the roots
    where float64 cannot decide the rounding.
    """
    out = []
    with mpmath.workdps(40):
        cs = [mpmath.mpf(int(c)) for c in coeffs]
        for z0 in roots:
            z = mpmath.mpc(complex(z0))
            for _ in range(4):
                p, dp = _horner_with_derivative(cs, z)
                if dp == 0:
                    break
                step = p / dp
                z = z - step
                if abs(step) < mpmath.mpf("1e-25") * (1 + abs(z)):
                    break
            out.append(complex(z))
    return np.array(out, dtype=complex)


# -- float64 polish --------------------------------------------------------------
#
# One float64 Newton step brings each Aberth root within about an ulp of the
# root.  At the result z, f by compensated Horner gives the Newton correction
# delta and a radius about z + delta that holds both the root and _polish's
# value for it.  A component keeps z's double where that disk decides its
# rounding; every other root goes through the mpmath _polish, so the output
# bytes are the same.

_UNIT = 2.0**-53
# Dekker's split factor for a 53-bit significand, 2^27 + 1.
_SPLIT = 2.0**27 + 1
# Where n·max|a_i| < 2^53, the coefficients of f and f' are exact in float64.
_FAST_COEFF_LIMIT = 2**53
# _polish runs Newton at 40 digits (136 bits) from the same Aberth point,
# until its step is below 1e-25·(1 + |z|) or for four steps.  Where float64
# decides a root, _polish has converged too: to within its Horner error,
# (4n + 2)·2^-136 times p~(|z|)/|f'(z)|, plus its rounding 2^-136·|z|.
# Below degree 2^20 this margin, times |z| + p~(|z|)/|f'(z)|, covers both.
_MPMATH_MARGIN = 2.0**-110


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _split(a):
    """(h, l) with a = h + l, each half of the significand (Dekker)."""
    c = _SPLIT * a
    h = c - (c - a)
    return h, a - h


def _compensated_horner(coeffs: Sequence[int], zr: np.ndarray, zi: np.ndarray):
    """f(z) at z = zr + i·zi by complex compensated Horner, as (real, imag).

    Graillat and Menissier-Morain, "Compensated Horner scheme in complex
    floating point arithmetic" (RNC 8, 2008; journal version "Accurate
    summation, dot product and polynomial evaluation in complex floating point
    arithmetic", Inf. Comput. 216, 2012): TwoProduct (Dekker) on the four
    real products of s·z, TwoSum on their sums and on the coefficient, and
    the errors summed by a plain Horner pass alongside.  The coefficients
    must be exact in float64.
    """
    # Row 0 of s·zz holds the two products whose sum is re(s·z), row 1 those
    # of im(s·z); the negation sits in zz, where it is exact.
    zz = np.array([[zr, -zi], [zi, zr]])
    zh, zl = _split(zz)
    s = np.zeros((2, zr.size))
    s[0] = coeffs[-1]
    c = np.zeros_like(s)
    for a in reversed(coeffs[:-1]):
        prod = s * zz
        sh, sl = _split(s)
        err = sl * zl - (((prod - sh * zh) - sl * zh) - sh * zl)
        s, e = _two_sum(prod[:, 0], prod[:, 1])
        if a:
            s[0], e0 = _two_sum(s[0], float(a))
            e[0] += e0
        cc = c * zz
        c = (cc[:, 0] + cc[:, 1]) + (e + err[:, 0] + err[:, 1])
    return s[0] + c[0], s[1] + c[1]


def _newton_radius(coeffs: Sequence[int], roots: np.ndarray):
    """(z, (delta_re, delta_im), radius): one float64 Newton step from the
    Aberth roots to z, and the Newton correction delta at z.

    Within radius[i] of z[i] + delta[i] lie both a root and _polish's value
    for it.  radius is NaN where that is not established.
    """
    n = len(coeffs) - 1
    df_coeffs = [float(i * c) for i, c in enumerate(coeffs)][1:]
    with np.errstate(all="ignore"):
        fr, fi = _compensated_horner(coeffs, roots.real, roots.imag)
        z = roots - (fr + 1j * fi) / _horner(df_coeffs, roots)
        fr, fi = _compensated_horner(coeffs, z.real, z.imag)
        df = _horner(df_coeffs, z)
        # delta = -F/D as -F·conj(D)/|D|^2, F and D the computed f(z), f'(z)
        dr, di = df.real, df.imag
        den = dr * dr + di * di
        delta = (-(fr * dr + fi * di) / den, (fr * di - fi * dr) / den)

        # The radius, with u = 2^-53, g = (4n+2)u / (1 - (4n+2)u), and p~,
        # p~', p~'' the polynomials with coefficients |a_i|, |i·a_i|,
        # |i(i-1)·a_i|.
        # - Compensated Horner (Graillat and Menissier-Morain, as above):
        #   |F - f(z)| <= u|f(z)| + 2g^2 p~(|z|), so |f(z)| <= f_bound and
        #   |F - f(z)| <= f_err.
        # - Plain complex Horner, each product within sqrt(2)·γ_2 and each
        #   sum within u (Higham, Accuracy and Stability of Numerical
        #   Algorithms, 2nd ed., Lemma 3.5): |D - f'(z)| <= γ_4(n-1)·p~'(|z|)
        #   <= df_err.  As p~'(|z|) >= |f'(z)|, df_err > 6u|D|, so a second
        #   df_err covers the rounding of df_low, a lower bound on |f'(z)|.
        # - Rouché: r1 bounds |f(z)/f'(z)|, and on the circle |w - z| = 2·r1
        #   the Taylor remainder is at most p~''(|z| + 2·r1)·(2·r1)^2/2;
        #   `second` is that over |f'(z)|.  Where second < r1 (tested against
        #   r1/2 to leave room for rounding), the disk holds exactly one
        #   root, and it lies within `second` of z - f(z)/f'(z).
        u = _UNIT
        g = (4 * n + 2) * u / (1 - (4 * n + 2) * u)
        absz = np.abs(z)
        absf = np.hypot(fr, fi)
        tilde = _horner([float(abs(c)) for c in coeffs], absz)
        f_bound = (absf + 2 * g * g * tilde) / (1 - u)
        f_err = u * f_bound + 2 * g * g * tilde
        absdf = np.sqrt(den)
        df_err = g * _horner([abs(c) for c in df_coeffs], absz)
        df_low = absdf - 2 * df_err
        r1 = f_bound / df_low
        dd_tilde = [float(abs(i * (i - 1) * c)) for i, c in enumerate(coeffs)][2:]
        second = _horner(dd_tilde, absz + 2 * r1) * 2 * r1 * r1 / df_low
        step = absf / absdf
        radius = (
            second
            + f_err / df_low  # -f(z)/f'(z) against -F/f'(z)
            + step * df_err / df_low  # -F/f'(z) against -F/D
            + 8 * u * step  # the rounding of delta, under 6u·|F|/|D|
            + _MPMATH_MARGIN * (absz + tilde / df_low)  # the root against _polish
        ) * (1 + 8 * g)  # its own rounding: inputs within a relative g, second 3g
        ok = np.isfinite(den) & (df_low > 0) & (second < r1 / 2)
    return z, delta, np.where(ok, radius, np.nan)


def _keeps_double(x: np.ndarray, delta: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """True where x + delta ± radius lies strictly inside x's rounding cell.

    The half-gaps to x's neighbours are exact, or 0 where x is subnormal,
    which decides nothing.  Rounding is monotone, so the rounded
    delta ± radius lies on the same side of them as the exact value; NaN
    compares False.
    """
    hi = (np.nextafter(x, np.inf) - x) / 2
    lo = (np.nextafter(x, -np.inf) - x) / 2
    return (delta + radius < hi) & (delta - radius > lo)


def _fast_polish(coeffs: Sequence[int], roots: np.ndarray) -> np.ndarray:
    """The output of _polish, with mpmath run only on undecided roots."""
    if (len(coeffs) - 1) * max(abs(c) for c in coeffs) >= _FAST_COEFF_LIMIT:
        return _polish(coeffs, roots)
    z, (dr, di), radius = _newton_radius(coeffs, roots)
    with np.errstate(invalid="ignore"):
        decided = _keeps_double(z.real, dr, radius) & _keeps_double(z.imag, di, radius)
    if not decided.all():
        z[~decided] = _polish(coeffs, roots[~decided])
    return z


def _log_residual_ok(coeffs: Sequence[int], roots: np.ndarray) -> Tuple[bool, float]:
    """Check |f(z)| <= RESIDUAL_FACTOR*(1+|z|)^n*l1 in log space; return max |f|."""
    n = len(coeffs) - 1
    l1 = float(sum(abs(c) for c in coeffs))
    cf = [float(c) for c in coeffs]
    p = _horner(cf, np.asarray(roots, dtype=complex))
    absp = np.abs(p)
    with np.errstate(divide="ignore"):
        lhs = np.log(absp)
    rhs = math.log(RESIDUAL_FACTOR) + n * np.log1p(np.abs(roots)) + math.log(l1)
    return bool(np.all(lhs <= rhs)), float(np.max(absp))


@lru_cache(maxsize=512)
def _aberth_roots(coeffs: Tuple[int, ...]) -> np.ndarray:
    """_aberth's roots, located once per polynomial and shared by every
    caller, so read-only.  _aberth itself stays uncached: its callers get a
    fresh array they may write."""
    roots = _aberth(coeffs)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=512)
def _find_roots_cached(coeffs: Tuple[int, ...]) -> ConjugateSet:
    p = IntPolynomial(coeffs)
    roots = _aberth_roots(coeffs)
    if p.degree > POLISH_DEGREE_THRESHOLD:
        roots = _fast_polish(coeffs, roots)
    ok, max_resid = _log_residual_ok(coeffs, roots)
    if not ok:
        raise RootFindingError("root finding failed")

    reals = []
    complexes = []
    for z in roots:
        if abs(z.imag) < REAL_CLASSIFY_FACTOR * (1.0 + abs(z)):
            reals.append(z.real)
        elif z.imag > 0:
            complexes.append(complex(z))
    s = len(reals)
    t = len(complexes)
    if s + 2 * t != p.degree:
        raise SignatureError("signature classification failed")
    exact_s = sturm_real_count(p)
    if exact_s != s:
        raise SignatureError("signature classification failed")
    return ConjugateSet(
        polynomial=p,
        real_roots=tuple(float(r) for r in sorted(reals)),
        complex_reps=tuple(sorted(complexes, key=lambda z: (z.real, z.imag))),
        s=s,
        t=t,
        max_residual=max_resid,
    )


def find_roots(p: IntPolynomial) -> ConjugateSet:
    """Certified ConjugateSet of a monic squarefree polynomial.

    Irreducibility is the caller's promise (families carry proofs, the search
    filters first); monicity, convergence, residual bound and the Sturm
    signature cross-check are all enforced here.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if not p.is_monic:
        raise ValueError("monic polynomial required")
    return _find_roots_cached(p.coefficients)


# -- sector counting -----------------------------------------------------------

def _argument(z: complex) -> float:
    a = cmath.phase(z)
    if a < 0:
        a += 2.0 * math.pi
    if a >= 2.0 * math.pi:
        a = 0.0
    return a


def sector_count(
    roots: Union[ConjugateSet, Sequence[complex]],
    phi: float,
    psi: float,
) -> int:
    """Number of roots with argument in [phi, psi), arguments taken in [0, 2pi)."""
    if not (0.0 <= phi < psi <= 2.0 * math.pi + 1e-15):
        raise ValueError(f"invalid sector [{phi}, {psi})")
    if isinstance(roots, ConjugateSet):
        pool = roots.all_roots()
    else:
        pool = list(roots)
    return sum(1 for z in pool if phi <= _argument(z) < psi)


@dataclass(frozen=True)
class SectorBoundResult:
    lhs: float
    rhs: float
    holds: bool
    sector_roots: int
    degree: int


def erdos_turan_check(
    p: IntPolynomial,
    phi: float,
    psi: float,
    constant: float = ERDOS_TURAN_DEFAULT,
) -> SectorBoundResult:
    """Discrepancy bound for root arguments over one sector.

    lhs = |N(phi,psi) - (psi-phi)/(2pi) * d|
    rhs = constant * sqrt(d * log(L / sqrt(|a_d * a_0|))), L = sum |a_i|.

    N counts the unpolished Aberth roots, located once per polynomial in a
    bounded cache, so every sector and constant on p shares one Aberth run.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if p.constant_term == 0 or p.leading_coefficient == 0:
        raise ValueError("nonzero constant and leading coefficients required")
    d = p.degree
    n_sector = sector_count(_aberth_roots(p.coefficients), phi, psi)
    lhs = abs(n_sector - (psi - phi) / (2.0 * math.pi) * d)
    length = float(sum(abs(c) for c in p.coefficients))
    ends = abs(p.leading_coefficient * p.constant_term)
    rhs = constant * math.sqrt(d * math.log(length / math.sqrt(ends)))
    return SectorBoundResult(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs), sector_roots=n_sector, degree=d
    )


# -- Pisot and family location checks -------------------------------------------

def pisot_check(roots: ConjugateSet) -> bool:
    """True iff the set belongs to a Pisot number: one real root > 1, every
    other conjugate strictly inside the unit circle.

    Any modulus within UNIT_CIRCLE_GUARD of 1 is refused rather than guessed.
    """
    moduli = [abs(z) for z in roots.all_roots()]
    for m in moduli:
        if abs(m - 1.0) < UNIT_CIRCLE_GUARD:
            raise InconclusiveError("inconclusive at tolerance")
    outside = [m for m in moduli if m > 1.0]
    if len(outside) != 1:
        return False
    dominant_real = [r for r in roots.real_roots if abs(r) > 1.0]
    if len(dominant_real) != 1:
        return False
    return dominant_real[0] > 1.0


@dataclass(frozen=True)
class MultinacciLocation:
    """Per-clause verdicts for the root layout of multinacci(n)."""

    n: int
    dominant_in_window: bool
    second_real_ok: bool
    annulus_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.dominant_in_window and self.second_real_ok and self.annulus_ok


def multinacci_location_check(n: int) -> MultinacciLocation:
    """Verify the dominant root sits in (2n/(n+1), 2), the second real root
    exists iff n is even and then lies in (-1, -3^(-1/n)), and every other
    conjugate has modulus strictly inside (3^(-1/n), 1).

    The dominant window is certified with exact Sturm counts; beyond degree
    50 the dominant root is closer to 2 than one double-precision ulp, so a
    floating comparison against 2 would be vacuous.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    p = multinacci(n)
    cs = find_roots(p)

    in_window = sturm_real_count(p, (Fraction(2 * n, n + 1), Fraction(2)))
    above = sturm_real_count(p, (Fraction(2), None))
    dominant_in_window = in_window == 1 and above == 0

    lower = -1.0
    upper = -(3.0 ** (-1.0 / n))
    others = [r for r in cs.real_roots if r < 1.0]
    if n % 2 == 0:
        second_real_ok = (
            cs.s == 2
            and len(others) == 1
            and lower + UNIT_CIRCLE_GUARD < others[0] < upper - UNIT_CIRCLE_GUARD
        )
    else:
        second_real_ok = cs.s == 1 and not others

    inner = 3.0 ** (-1.0 / n)
    annulus_ok = all(
        inner + UNIT_CIRCLE_GUARD < abs(z) < 1.0 - UNIT_CIRCLE_GUARD
        for z in cs.complex_reps
    )
    return MultinacciLocation(
        n=n,
        dominant_in_window=dominant_in_window,
        second_real_ok=second_real_ok,
        annulus_ok=annulus_ok,
    )
