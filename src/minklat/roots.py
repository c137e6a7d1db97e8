"""Floating root finding with exact cross-checks.

Roots come from a simultaneous Aberth iteration in double precision, the
same path at every degree.  At convergence the iteration is backward stable,
and each root must pass a residual bound.  The real/complex split is never
trusted on its own: the count of real roots must match the exact Sturm count
or construction fails.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

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
# the unit roundoff of float64
_UNIT = 2.0**-53


class RootFindingError(RuntimeError):
    pass


class SignatureError(RuntimeError):
    pass


class InconclusiveError(RuntimeError):
    """A floating comparison fell inside its guard band; no verdict."""


@dataclass(frozen=True)
class ConjugateSet:
    """Certified roots of a monic irreducible polynomial.

    The roots are the Aberth iterates in double precision; the count of
    real ones is certified by Sturm.  real_roots is sorted ascending;
    complex_reps holds one member per conjugate pair, imaginary part
    positive.
    """

    polynomial: IntPolynomial
    real_roots: Tuple[float, ...]
    complex_reps: Tuple[complex, ...]
    s: int
    t: int

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
    diagonal = diff.reshape(-1)[:: n + 1]  # a view of diff's diagonal
    for _ in range(MAX_ABERTH_ITERATIONS):
        p, dp = _horner_with_derivative(cf, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p / dp
            np.subtract(z[:, None], z[None, :], out=diff)
            diagonal[:] = np.inf
            s = np.add.reduce(np.divide(1.0, diff, out=diff), axis=1)
            w = newton / (1.0 - newton * s)
        if not np.isfinite(w).all():
            # a non-finite real or imaginary part becomes 0, the other part
            # stays, as np.nan_to_num does on a complex array
            for part in (w.real, w.imag):
                part[~np.isfinite(part)] = 0.0
        z = z - w
        if np.maximum.reduce(np.abs(w) / (1.0 + np.abs(z))) < 1e-14:
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


def _log_residual_ok(coeffs: Sequence[int], roots: np.ndarray) -> bool:
    """Check |f(z)| <= RESIDUAL_FACTOR*(1+|z|)^n*l1 in log space."""
    n = len(coeffs) - 1
    l1 = float(sum(abs(c) for c in coeffs))
    cf = [float(c) for c in coeffs]
    p = _horner(cf, np.asarray(roots, dtype=complex))
    with np.errstate(divide="ignore"):
        lhs = np.log(np.abs(p))
    rhs = math.log(RESIDUAL_FACTOR) + n * np.log1p(np.abs(roots)) + math.log(l1)
    return bool(np.all(lhs <= rhs))


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
    if not _log_residual_ok(coeffs, roots):
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
    )


def find_roots(p: IntPolynomial) -> ConjugateSet:
    """Certified ConjugateSet of a monic squarefree polynomial.

    The roots are _aberth_roots' at every degree, located once per
    polynomial.  Irreducibility is the caller's promise (families carry
    proofs, the search filters first); monicity, convergence, residual bound
    and the Sturm signature cross-check are all enforced here.
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

    N counts the Aberth roots, located once per polynomial in a bounded
    cache, so every sector and constant on p shares one Aberth run.
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
        dominant_in_window=dominant_in_window,
        second_real_ok=second_real_ok,
        annulus_ok=annulus_ok,
    )
