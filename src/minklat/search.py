"""Exhaustive search for monic integer polynomials with m below one.

The raw coefficient box |a_i| < C(n,i)(s+t)^(i/2) is astronomically large by
degree 6, so the default pipeline generates candidates through sound prunes:

  * constant term forced to +-1 (any norm >= 2 pushes m over the universal
    floor for n <= 23, see measures.unit_necessity_gate);
  * Newton-identity windows: m < 1 forces sum |alpha_i|^2 = R + 2C < 2(s+t),
    hence |p_k| <= (2(s+t))^(k/2) for k >= 2 and |p_1| <= sqrt(2n(s+t)), so
    each coefficient lives in a short interval around the value making the
    next power sum zero;
  * Maclaurin bound |a_i| <= C(n,i)(2(s+t)/n)^(i/2) on the same ball;
  * f(1) != 0 and f(-1) != 0 (else reducible);
  * one representative per {f(x), (-1)^n f(-x)} orbit is tested, both
    members are reported.

A vectorized companion-eigenvalue prescreen then decides only m: it
discards candidates whose estimated m exceeds 1 + 1e-6, a margin many orders
above eigenvalue error at these degrees. The raw box passes through the same
prescreen, so pruned and unpruned runs agreeing at degrees 3 and 4 validates
the walk's prunes. Survivors face the exact stage: the Sturm count decides
the signature, then certified irreducibility, then the size profile's m.

_scan_signature_range runs that whole pipeline on one slice of a_1 values and
returns the stage counts with every (coefficients, m) near or below one;
enumerate_m_lt_one merges the slices, sorts once and splits off the
inconclusive band. The same walker, with its own ball, and the same mirror
orbit serve the totally real scans too: subelement_scan and
verify.check_smyth.
"""
from __future__ import annotations

import math
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb, isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .intpoly import IntPolynomial, is_irreducible_of_signature
from .measures import m_lower_bound_signature, size_profile
from .roots import find_roots

MAX_SEARCH_DEGREE = 8
M_GUARD = 1e-9
PRESCREEN_M_GUARD = 1e-6
PRESCREEN_CHUNK = 4096
WINDOW_SLACK = 1.0 + 1e-6


# -- coefficient boxes ---------------------------------------------------------------

def _strict_below(c: int, base: int, i: int) -> int:
    """Largest integer strictly below c * base^(i/2), exactly."""
    sq = c * c * base**i
    u = isqrt(sq)
    return u - 1 if u * u == sq else u


def coefficient_bounds(n: int, s_plus_t: int) -> List[int]:
    """Strict bounds for |a_i|, i = 1..n: every monic integer polynomial all
    of whose roots have modulus below sqrt(s+t) satisfies |a_i| < C(n,i)(s+t)^(i/2).
    """
    if not 1 <= s_plus_t <= n:
        raise ValueError("need 1 <= s+t <= n")
    return [_strict_below(comb(n, i), s_plus_t, i) for i in range(1, n + 1)]


# -- candidate generation -------------------------------------------------------------

def _mirror_coeffs(coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Coefficients of (-1)^n f(-x): odd-index signs flip (a_k is the
    coefficient of x^(n-k))."""
    return tuple(-a if k % 2 else a for k, a in enumerate(coeffs, start=1))


def _orbit(coeffs: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The mirror orbit {f, (-1)^n f(-x)}, each member once, ascending."""
    return tuple(sorted({coeffs, _mirror_coeffs(coeffs)}))


def _walk_pruned(
    n: int,
    a1_values: Optional[Iterable[int]],
    rho: float,
    totally_real: bool,
    unit_constant: bool,
) -> List[Tuple[int, ...]]:
    """Canonical candidates (a_1..a_n), one per mirror orbit, of the
    Newton-window walk of the ball sum |alpha_i|^2 <= rho.

    The search passes rho = 2(s+t) and a_n = +-1 (unit_constant);
    check_smyth (rho = 3n/2) and subelement_scan (rho = bound/w_min) pass
    totally_real, which holds the even p_k in [0, rho^(k/2)), and take any
    nonzero a_n of its window.  a1_values=None walks every a_1 >= 0.
    """
    upper = [0.0] * (n + 1)
    upper[1] = math.sqrt(n * rho) * WINDOW_SLACK
    for k in range(2, n + 1):
        upper[k] = rho ** (k / 2) * WINDOW_SLACK
    # The windows admit lower[k] <= p_k <= upper[k]; an even p_k of real
    # roots is an integer >= 0, and -1/2 lets 0 through.  Power sums past p_n
    # are not windowed: a leaf outside their windows lies outside the ball, so
    # the search's prescreen finds m >= 1, and the scans' exact signature or
    # p_2 test rejects it.
    lower = [-b for b in upper]
    if totally_real:
        lower[2::2] = [-0.5] * (n // 2)
    mac = [int(comb(n, i) * (rho / n) ** (i / 2) * WINDOW_SLACK) for i in range(n + 1)]
    out: List[Tuple[int, ...]] = []
    a = [0] * (n + 1)  # a[k] multiplies x^(n-k); a[0] unused
    p = [0] * n  # p[k] is the power sum p_k of the fixed a_1..a_k

    def emit_leaf(sym_open: bool):
        # a_n at odd n is the orbit's last sign choice: with the orbit still
        # open, only a_n > 0 is canonical
        center = -sum(a[i] * p[n - i] for i in range(1, n))
        if unit_constant:
            choices = (1,) if (sym_open and n % 2) else (-1, 1)
        else:
            lo = max(math.ceil((center - upper[n]) / n), -mac[n])
            hi = min(math.floor((center - lower[n]) / n), mac[n])
            if sym_open and n % 2:
                lo = max(lo, 1)
            choices = [an for an in range(lo, hi + 1) if an]
        for an in choices:
            if abs(center - n * an) >= upper[n]:
                continue
            a[n] = an
            f_at_1 = 1 + sum(a[1:])
            f_at_m1 = (-1) ** n + sum(
                a[i] * (-1) ** (n - i) for i in range(1, n + 1)
            )
            if f_at_1 and f_at_m1:
                out.append(tuple(a[1:]))
        a[n] = 0

    def walk(k: int, sym_open: bool):
        if k == n:
            emit_leaf(sym_open)
            return
        center = -sum(a[i] * p[k - i] for i in range(1, k))
        lo = math.ceil((center - upper[k]) / k)
        hi = math.floor((center - lower[k]) / k)
        lo = max(lo, -mac[k])
        hi = min(hi, mac[k])
        odd = k % 2 == 1
        if odd and sym_open:
            lo = max(lo, 0)
        for ak in range(lo, hi + 1):
            a[k] = ak
            p[k] = center - k * ak
            walk(k + 1, sym_open and not (odd and ak))
        a[k] = 0

    a1_bound = min(upper[1], mac[1])
    if a1_values is None:
        a1_values = range(int(a1_bound) + 1)
    for a1 in a1_values:
        if abs(a1) > a1_bound or a1 < 0:
            continue
        a[1] = a1
        p[1] = -a1
        walk(2, a1 == 0)
    return out


def _walk_raw(
    n: int, s_plus_t: int, a1_values: Iterable[int]
) -> List[Tuple[int, ...]]:
    """Full coefficient box, no prunes beyond the box itself."""
    bounds = coefficient_bounds(n, s_plus_t)
    a1_in_box = [a1 for a1 in a1_values if abs(a1) <= bounds[0]]
    return list(product(a1_in_box, *(range(-b, b + 1) for b in bounds[1:])))


# -- eigenvalue prescreen -------------------------------------------------------------

def _prescreen(
    cands: Sequence[Tuple[int, ...]], n: int, st: int
) -> List[Tuple[int, ...]]:
    """Safe numeric discard on estimated m alone; keeps anything ambiguous.

    A root that is not clearly real is counted as half of a complex pair,
    which can only lower the estimate.
    """
    kept: List[Tuple[int, ...]] = []
    for lo in range(0, len(cands), PRESCREEN_CHUNK):
        chunk = cands[lo : lo + PRESCREEN_CHUNK]
        block = np.asarray(chunk, dtype=np.float64)
        k = len(block)
        companion = np.zeros((k, n, n))
        if n > 1:
            companion[:, 1:, :-1] = np.eye(n - 1)
        companion[:, 0, :] = -block
        ev = np.linalg.eigvals(companion)
        mod2 = ev.real**2 + ev.imag**2
        clearly_real = np.abs(ev.imag) < 1e-7 * (1 + np.abs(ev.real))
        total = mod2.sum(axis=1)
        real_part = np.where(clearly_real, mod2, 0.0).sum(axis=1)
        m_est = (real_part + (total - real_part) / 2.0) / st
        discard = m_est > 1.0 + PRESCREEN_M_GUARD
        kept.extend(chunk[i] for i in np.nonzero(~discard)[0])
    return kept


# -- exact stage ----------------------------------------------------------------------

def _to_polynomial(coeffs: Sequence[int], n: int) -> IntPolynomial:
    # coeffs are a_1..a_n with a_k on x^(n-k); storage is constant-first
    return IntPolynomial(tuple(reversed(coeffs)) + (1,))


# -- report types ---------------------------------------------------------------------

@dataclass(frozen=True)
class SearchGroup:
    signature: Tuple[int, int]
    entries: Tuple[Tuple[IntPolynomial, float], ...]
    lower_bound: float

    @property
    def count(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "signature": list(self.signature),
            "count": self.count,
            "lower_bound": self.lower_bound,
            "polynomials": [
                {"polynomial": p.to_text(), "m": m} for p, m in self.entries
            ],
        }


@dataclass(frozen=True)
class SearchReport:
    degree: int
    groups: Tuple[SearchGroup, ...]
    inconclusive: Tuple[Tuple[IntPolynomial, float], ...]
    stats: Dict[str, int]
    wall_time: float
    pruned: bool

    def total_count(self) -> int:
        return sum(g.count for g in self.groups)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "groups": [g.to_json_dict() for g in self.groups],
            "inconclusive": [
                {"polynomial": p.to_text(), "m": m} for p, m in self.inconclusive
            ],
            "stats": dict(self.stats),
            "wall_time": self.wall_time,
            "pruned": self.pruned,
        }

    def csv_rows(self) -> List[Tuple[str, str, str, str]]:
        rows = []
        for g in self.groups:
            sig = f"({g.signature[0]},{g.signature[1]})"
            for p, m in g.entries:
                rows.append((sig, p.to_text(), f"{m:.9f}", f"{g.lower_bound:.9f}"))
        return rows


# -- orchestration --------------------------------------------------------------------

def admissible_signatures(n: int) -> List[Tuple[int, int]]:
    """Signatures with s·t != 0 at degree n; m >= 1 is forced otherwise."""
    return [(n - 2 * t, t) for t in range(1, (n - 1) // 2 + 1)]


def _m_value(coeffs: Sequence[int], n: int) -> float:
    return size_profile(find_roots(_to_polynomial(coeffs, n))).m


def _scan_signature_range(
    n: int, s: int, t: int, a1_values: Sequence[int], prune: bool
) -> Tuple[Counter, List[Tuple[Tuple[int, ...], float]]]:
    """The per-signature pipeline: walk, prescreen, exact signature and
    irreducibility, then m.  Returns the stage counts and every (a_1..a_n, m)
    with m <= 1 + M_GUARD; the pruned walk lists one member per mirror orbit,
    so there the mirror is returned too where its own m passes that test.
    """
    if prune:
        leaves = _walk_pruned(n, a1_values, 2 * (s + t), False, True)
    else:
        leaves = _walk_raw(n, s + t, a1_values)
    survivors = _prescreen(leaves, n, s + t)
    counts = Counter(generated=len(leaves), passed_prescreen=len(survivors))
    found: List[Tuple[Tuple[int, ...], float]] = []
    for coeffs in survivors:
        if not is_irreducible_of_signature(_to_polynomial(coeffs, n), s):
            continue
        counts["passed_irreducibility"] += 1
        m = _m_value(coeffs, n)
        if m > 1.0 + M_GUARD:
            continue
        found.append((coeffs, m))
        mirror = _mirror_coeffs(coeffs)
        if prune and mirror != coeffs:
            # the mirror passes the same filters by symmetry; its m is
            # mathematically equal but recomputed from its own roots so the
            # float agrees bit-for-bit with an unpruned run
            mirror_m = _m_value(mirror, n)
            if mirror_m <= 1.0 + M_GUARD:
                found.append((mirror, mirror_m))
    return counts, found


def enumerate_m_lt_one(
    n: int,
    signature_filter: Optional[Tuple[int, int]] = None,
    prune: bool = True,
    threads: int = 1,
) -> SearchReport:
    """All monic irreducible integer polynomials of degree n with m < 1.

    With prune=False the full raw coefficient box is enumerated instead
    (feasible through degree 4 only) and the same exact filters applied;
    the two modes must agree polynomial-for-polynomial.
    """
    if not 2 <= n <= MAX_SEARCH_DEGREE:
        raise ValueError(f"degree must be within [2, {MAX_SEARCH_DEGREE}]")
    if not prune and n > 4:
        raise ValueError("unpruned search supported only through degree 4")
    signatures = admissible_signatures(n)
    if signature_filter is not None:
        sf = (int(signature_filter[0]), int(signature_filter[1]))
        if sf not in signatures:
            raise ValueError(f"signature {sf} not admissible at degree {n}")
        signatures = [sf]

    t0 = time.time()
    stats = Counter(
        generated=0, passed_prescreen=0, passed_irreducibility=0, passed_m=0
    )
    groups = []
    inconclusive: List[Tuple[IntPolynomial, float]] = []
    for s, t in signatures:
        st = s + t
        if prune:
            a1_cap = int(math.sqrt(2 * n * st) * WINDOW_SLACK)
            a1_values = list(range(0, a1_cap + 1))
        else:
            a1_cap = coefficient_bounds(n, st)[0]
            a1_values = list(range(-a1_cap, a1_cap + 1))
        workers = max(1, min(threads, len(a1_values)))
        jobs = [(n, s, t, a1_values[i::workers], prune) for i in range(workers)]
        if workers == 1:
            parts = [_scan_signature_range(*jobs[0])]
        else:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                parts = pool.starmap(_scan_signature_range, jobs)
        found: List[Tuple[IntPolynomial, float]] = []
        for counts, pairs in parts:
            stats.update(counts)
            found.extend((_to_polynomial(c, n), m) for c, m in pairs)
        found.sort(key=lambda pm: (pm[1], pm[0].coefficients))
        entries = tuple(pm for pm in found if pm[1] < 1.0 - M_GUARD)
        inconclusive.extend(pm for pm in found if pm[1] >= 1.0 - M_GUARD)
        stats["passed_m"] += len(entries)
        groups.append(SearchGroup((s, t), entries, m_lower_bound_signature(s, t)))
    return SearchReport(
        degree=n,
        groups=tuple(groups),
        inconclusive=tuple(inconclusive),
        stats=dict(stats),
        wall_time=time.time() - t0,
        pruned=prune,
    )


# -- low-degree subelement scans ------------------------------------------------------

def subelement_scan(
    bound_sq: float, degree: int, weights: Sequence[int]
) -> List[IntPolynomial]:
    """Hunt for totally real monic irreducible polynomials of the given
    degree whose weighted conjugate-square sum could undercut bound_sq.

    The minimum of sum w_i x_(pi(i))^2 over assignments pairs the largest
    weights with the smallest squares (rearrangement), and it is at least
    w_min * p_2, so any undercutting element has p_2 < bound_sq / w_min: the
    Newton-window walk of that totally real ball is the finite candidate
    set. Returns violators; an empty list is the verification.
    """
    if degree < 2 or len(weights) != degree or any(w < 1 for w in weights):
        raise ValueError("unsupported subelement pattern")
    if not bound_sq > 0:
        raise ValueError("unsupported subelement pattern")
    w_desc = sorted(weights, reverse=True)
    violators: List[IntPolynomial] = []
    for coeffs in _walk_pruned(degree, None, bound_sq / w_desc[-1], True, False):
        poly = _to_polynomial(coeffs, degree)
        if not is_irreducible_of_signature(poly, degree):
            continue
        roots = find_roots(poly)
        squares = sorted(r * r for r in roots.real_roots)
        weighted = sum(w * sq for w, sq in zip(w_desc, squares))
        if weighted < bound_sq - 1e-9:
            # the mirror's roots are the negatives, with the same squares
            violators.extend(_to_polynomial(c, degree) for c in _orbit(coeffs))
    return violators
