"""Raw coefficient-box oracle for the exhaustive m < 1 search.

A test helper: it lists every monic integer polynomial whose coefficients
fit the box |a_i| < C(n,i)(s+t)^(i/2), with no prune beyond the box, and
sends each one through the search's prescreen and exact stage.  It shares
no step with the Newton-window walk, so raw_box_search agreeing with
enumerate_m_lt_one validates the walk's prunes.  The box is feasible
through degree 4.
"""
import time
from math import comb, isqrt
from typing import List

import numpy as np

from minklat.intpoly import is_irreducible_of_signature
from minklat.measures import m_lower_bound_signature
from minklat.search import (
    M_GUARD,
    SearchGroup,
    SearchReport,
    _companion_sums,
    _m_value,
    _prescreen,
    _to_polynomial,
    admissible_signatures,
)

RAW_BOX_DEGREE_CAP = 4


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


def raw_box(n: int, s_plus_t: int) -> np.ndarray:
    """The full coefficient box as an (L, n) int64 array of a_1..a_n, in
    lexicographic order."""
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in coefficient_bounds(n, s_plus_t)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def raw_box_search(n: int) -> SearchReport:
    """enumerate_m_lt_one(n) computed from the raw box of each signature:
    every box leaf goes through the companion prescreen, the exact
    signature and irreducibility test and m, and the results are sorted and
    split off the inconclusive band as the search splits them."""
    if not 2 <= n <= RAW_BOX_DEGREE_CAP:
        raise ValueError(f"raw box supported only through degree {RAW_BOX_DEGREE_CAP}")
    t0 = time.perf_counter()
    stats = dict(generated=0, passed_prescreen=0, passed_irreducibility=0, passed_m=0)
    groups = []
    inconclusive = []
    for s, t in admissible_signatures(n):
        leaves = raw_box(n, s + t)
        survivors = leaves[_prescreen(_companion_sums(leaves, s + t), s + t)]
        stats["generated"] += len(leaves)
        stats["passed_prescreen"] += len(survivors)
        found = []
        for coeffs in map(tuple, survivors.tolist()):
            poly = _to_polynomial(coeffs, n)
            if not is_irreducible_of_signature(poly, s):
                continue
            stats["passed_irreducibility"] += 1
            m = _m_value(coeffs, n)
            if m <= 1.0 + M_GUARD:
                found.append((poly, m))
        found.sort(key=lambda pm: (pm[1], pm[0].coefficients))
        entries = tuple(pm for pm in found if pm[1] < 1.0 - M_GUARD)
        inconclusive.extend(pm for pm in found if pm[1] >= 1.0 - M_GUARD)
        stats["passed_m"] += len(entries)
        groups.append(SearchGroup((s, t), entries, m_lower_bound_signature(s, t)))
    return SearchReport(
        degree=n,
        groups=tuple(groups),
        inconclusive=tuple(inconclusive),
        stats=stats,
        wall_time=time.perf_counter() - t0,
    )
