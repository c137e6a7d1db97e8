"""Exhaustive search for monic integer polynomials with m below one.

The raw coefficient box |a_i| < C(n,i)(s+t)^(i/2) is astronomically large by
degree 6, so the pipeline generates candidates through sound prunes:

  * constant term forced to +-1 (any norm >= 2 pushes m over the universal
    floor for n <= 23, see measures.unit_necessity_gate);
  * Newton-identity windows: m < 1 forces sum |alpha_i|^2 = R + 2C < rho =
    2(s+t), hence p_k^2 <= rho^k for k >= 2 and p_1^2 <= n rho, so each
    coefficient lives in a short interval around the value making the next
    power sum zero;
  * Maclaurin bound a_i^2 n^i <= C(n,i)^2 rho^i on the same ball;
  * f(1) != 0 and f(-1) != 0 (else reducible);
  * one representative per {f(x), (-1)^n f(-x)} orbit is tested, both
    members are reported.

Every window is an exact integer bound, with no slack, and every window
grows with the ball, so one walk per degree serves every
signature: it runs on the largest ball, 2(n-1), and marks the leaves that
each smaller signature's own windows admit, in the order that signature's
own walk would list them. The walk is vectorized one depth at a time and
streamed one a_1 value at a time, so memory holds one a_1 slice of leaves.

A vectorized companion-eigenvalue prescreen then decides only m: it
discards candidates whose estimated m exceeds 1 + 1e-6, a margin many orders
above eigenvalue error at these degrees. The eigenvalues are computed once
per leaf, and each signature applies its own estimate to them. Most leaves
need none. The estimate times s+t is half of sum |alpha_i|^2 plus the sum of
alpha^2 over the real roots, and the exact coefficients bound both from
below: one Graeffe root-squaring step and Maclaurin's inequality give a
floor on the first, and the signs of f at +-1, +-3/2, ..., +-3 put real
roots beyond those points.  A leaf whose bound exceeds s+t by 1% on the
largest ball is discarded unsolved: 85% of the leaves at degree 5, 96% at
degree 6. The tests run every raw-box leaf through the same prescreen and
exact stage, and their agreement with the walk at degrees 3 and 4 validates
the walk's prunes.
Survivors face the exact stage, per signature: the Sturm count decides the
signature, then certified irreducibility, then the size profile's m.

_scan_slice runs that whole pipeline on one slice of a_1 values and returns,
per signature, the stage counts with every (coefficients, m) near or below
one; enumerate_m_lt_one merges the slices, sorts once and splits off the
inconclusive band. The same walker, with its own ball, and the same mirror
orbit serve the totally real scans too: subelement_scan and
verify.check_smyth.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .intpoly import IntPolynomial, is_irreducible_of_signature
from .measures import m_lower_bound_signature, size_profile
from .roots import find_roots

# the largest degree that has run: one a_1 slice of the degree-7 walk holds
# 5e8 leaves, more memory than a whole-slice scan can have
MAX_SEARCH_DEGREE = 6
M_GUARD = 1e-9
PRESCREEN_M_GUARD = 1e-6
PRESCREEN_CHUNK = 4096
FLOOR_MARGIN = 0.01
REAL_ROOT_POINTS = ((1, 1), (3, 2), (2, 1), (5, 2), (3, 1))  # c = num/den, ascending


# -- candidate generation -------------------------------------------------------------

def _mirror_coeffs(coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Coefficients of (-1)^n f(-x): odd-index signs flip (a_k is the
    coefficient of x^(n-k))."""
    return tuple(-a if k % 2 else a for k, a in enumerate(coeffs, start=1))


def _orbit(coeffs: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The mirror orbit {f, (-1)^n f(-x)}, each member once, ascending."""
    return tuple(sorted({coeffs, _mirror_coeffs(coeffs)}))


def _windows(
    n: int, rho: float, totally_real: bool
) -> Tuple[List[int], List[int], List[int]]:
    """The walk's windows on the ball sum |alpha_i|^2 <= rho, as exact
    integers: lower[k] <= p_k <= upper[k] for the Newton power sums and
    |a_k| <= mac[k] (Maclaurin).  rho is an int, float or Fraction.

    p_1^2 <= n rho, p_k^2 <= rho^k and a_k^2 n^k <= C(n,k)^2 rho^k, so each
    bound is the isqrt of an exact floor, and an integer meets its test
    exactly when it lies within the bound."""
    num, den = rho.as_integer_ratio()
    upper = [0, math.isqrt(n * num // den)]
    upper += [math.isqrt(num**k // den**k) for k in range(2, n + 1)]
    # An even p_k of real roots is >= 0.  Power sums past p_n are not
    # windowed: a leaf outside their windows lies outside the ball, so the
    # search's prescreen finds m >= 1, and the scans' exact signature or p_2
    # test rejects it.
    lower = [-b for b in upper]
    if totally_real:
        lower[2::2] = [0] * (n // 2)
    mac = [math.isqrt(comb(n, k) ** 2 * num**k // (n * den) ** k) for k in range(n + 1)]
    return upper, lower, mac


def _window(center: np.ndarray, k: int, upper, lower, mac):
    """Bounds lo..hi of a_k for each prefix: p_k = center - k a_k inside its
    window, and |a_k| within the Maclaurin cap."""
    lo = np.maximum(-((upper[k] - center) // k), -mac[k])
    hi = np.minimum((center - lower[k]) // k, mac[k])
    return lo, hi


def _walk(
    n: int,
    a1_values: Optional[Iterable[int]],
    rhos: Sequence[float],
    totally_real: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical candidates (a_1..a_n), one per mirror orbit, of the
    Newton-window walk of the ball sum |alpha_i|^2 <= rhos[0].

    Returns the leaves as an (L, n) int64 array, in lexicographic order,
    and an (len(rhos), L) bool array whose row j marks the leaves that the
    walk of the ball rhos[j] <= rhos[0] lists.  Every window grows with rho,
    so a smaller ball's walk is the larger one's, filtered by its own
    windows, in the same order.

    The search walks rho = 2(s+t) with a_n = +-1.  check_smyth (rho =
    3n/2) and subelement_scan (rho = bound/w_min) pass totally_real, which
    holds the even p_k >= 0 and takes any nonzero a_n of its window.
    a1_values=None walks every a_1 >= 0.

    Every window is an exact integer bound (_windows), and the leaf's p_n
    meets the same test, p_n^2 <= rho^n, as every power sum before it.  The
    walk runs one depth at a time on int64 columns of a_1..a_k and
    p_1..p_k, so every integer it forms must stay below 2^63; a ball too
    large for that raises ValueError before any array is built.
    """
    if any(rho > rhos[0] for rho in rhos):
        raise ValueError("the walked ball rhos[0] must be the largest")
    too_large = f"ball radius {rhos[0]} too large for an exact walk"
    if not n * math.log2(rhos[0]) < 126:  # rho^(n/2) >= 2^63, or infinite
        raise ValueError(too_large)
    windows = [_windows(n, rho, totally_real) for rho in rhos]
    upper, lower, mac = windows[0]
    # |p_j| <= upper[j] and |a_i| <= mac[i] bound every integer formed: the
    # Newton sums center = p_k + k a_k, center minus either end of p_k's
    # window, k a_k, and p_k (at the unit leaf, center -+ n)
    reach = max(
        sum(mac[i] * upper[k - i] for i in range(1, k)) + max(upper[k], k * mac[k], k)
        for k in range(1, n + 1)
    )
    if reach >= 2**63:
        raise ValueError(too_large)
    a1_bounds = [u[1] for u, _, _ in windows]
    if a1_values is None:
        a1_values = range(a1_bounds[0] + 1)
    first = [a1 for a1 in a1_values if 0 <= a1 <= a1_bounds[0]]
    a = [np.array(first, dtype=np.int64)]  # a[k-1] is the column of a_k
    p = [-a[0]]  # p[k-1] is the power sum p_k of the fixed a_1..a_k
    sym_open = a[0] == 0
    admitted = np.array([a[0] <= bound for bound in a1_bounds])
    for k in range(2, n + 1):
        center = -sum(a[i - 1] * p[k - i - 1] for i in range(1, k))
        unit_leaf = k == n and not totally_real
        if unit_leaf:
            lo, hi = np.full_like(center, -1), np.ones_like(center)
        else:
            lo, hi = _window(center, k, upper, lower, mac)
        odd = k % 2 == 1
        if odd:
            # with the orbit still open only a_k >= 0 is canonical; a_n = 0
            # is dropped at the leaf
            lo = np.where(sym_open, np.maximum(lo, 0), lo)
        # every prefix's children a_k = lo..hi, ascending, kept contiguous
        count = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(count)), count)
        ak = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(parent))
        pk = center[parent] - k * ak
        admitted = admitted[:, parent]
        if not unit_leaf:
            for j, (u, lw, m) in enumerate(windows[1:], start=1):
                lo_j, hi_j = _window(center, k, u, lw, m)
                admitted[j] &= (ak >= lo_j[parent]) & (ak <= hi_j[parent])
        if k == n:
            break
        a = [col[parent] for col in a] + [ak]
        p = [col[parent] for col in p] + [pk]
        sym_open = sym_open[parent] & ~(odd & (ak != 0))
    # the leaf tests, before any prefix column is gathered: a_n != 0,
    # |p_n| <= upper[n], f(1) != 0 and f(-1) != 0 (else reducible)
    f_at_1 = (1 + sum(a))[parent] + ak
    alternating = sum(c if (n - i) % 2 == 0 else -c for i, c in enumerate(a, 1))
    f_at_m1 = ((-1) ** n + alternating)[parent] + ak
    pn = np.abs(pk)
    keep = (ak != 0) & (pn <= upper[n]) & (f_at_1 != 0) & (f_at_m1 != 0)
    for j, (u, _, _) in enumerate(windows[1:], start=1):
        admitted[j] &= pn <= u[n]
    parent = parent[keep]
    leaves = np.empty((len(parent), n), dtype=np.int64)
    for i, col in enumerate(a):
        leaves[:, i] = col[parent]
    leaves[:, n - 1] = ak[keep]
    return leaves, admitted[:, keep]


# -- eigenvalue prescreen -------------------------------------------------------------

def _square_sum_floor(leaves: np.ndarray) -> np.ndarray:
    """Per leaf a_1..a_n, a lower bound on sum |alpha_i|^2 from its exact
    coefficients (one Graeffe step, then Maclaurin).

    g(x^2) = (-1)^n f(x) f(-x) has the roots alpha_i^2, and its coefficient
    of x^(2(n-k)) is +-E_k, E_k = e_k(alpha^2) = sum over u + v = 2k of
    (-1)^v a_u a_v (a_0 = 1), an exact integer.  The triangle inequality and
    Maclaurin's inequality (Hardy, Littlewood and Polya, Inequalities,
    2.22) give |E_k| <= e_k(|alpha|^2) <= C(n,k) (sum |alpha_i|^2 / n)^k,
    so n (|E_k| / C(n,k))^(1/k) <= sum |alpha_i|^2 for every k; the floor
    is their maximum.  At k = 1 it is |p_2|.

    The walk's leaves, and those of the raw coefficient box the tests
    compare it with, have |a_u| <= C(n,u) r^u with r^2 <= n, so |E_k| <=
    C(2n,2k) n^k < 2^29 at n <= 8: int64 and float64 hold every E_k
    exactly.
    """
    k, n = leaves.shape
    a = np.ones((k, n + 1), dtype=np.int64)
    a[:, 1:] = leaves
    floor = np.zeros(k)
    for j in range(1, n + 1):
        # the terms u and 2j - u pair up; u = v = j is the middle one
        e = (-1) ** j * a[:, j] ** 2
        for u in range(max(0, 2 * j - n), j):
            e += 2 * (-1) ** u * a[:, u] * a[:, 2 * j - u]
        floor = np.maximum(floor, n * (np.abs(e) / comb(n, j)) ** (1.0 / j))
    return floor


def _real_root_floor(leaves: np.ndarray) -> np.ndarray:
    """Per leaf a_1..a_n, a lower bound on the sum of alpha^2 over the real
    roots, from the exact signs of f at +-c for c in REAL_ROOT_POINTS.

    f is monic, so f(c) < 0 puts a real root above c, and (-1)^n f(-c) < 0
    one below -c.  With c+ and c- the largest such c on each side (0 where
    there is none), the floor is c+^2 + c-^2.

    For c = num/den, den^n f(c) and (-1)^n den^n f(-c) are the integers
    sum_k a_k num^(n-k) (+-den)^k (a_0 = 1), one column per point.  With
    |a_k| <= C(n,k) r^k and r^2 <= n, as for _square_sum_floor, each is at
    most (num + den sqrt(n))^n < 2^28 at n <= 8, so int64 holds every term
    and sum exactly.
    """
    k, n = leaves.shape
    points = [(num, sd) for num, den in REAL_ROOT_POINTS for sd in (den, -den)]
    weights = np.array(
        [[num ** (n - i) * sd**i for num, sd in points] for i in range(n + 1)],
        dtype=np.int64,
    )
    beyond = weights[0] + leaves @ weights[1:] < 0
    floor = np.zeros((2, k))  # c+^2 and c-^2
    for j, (num, sd) in enumerate(points):
        # the points ascend, so the last sign change on a side is its largest c
        floor[j % 2, beyond[:, j]] = (num / sd) ** 2
    return floor[0] + floor[1]


def _companion_sums(leaves: np.ndarray, st: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per leaf, from its companion eigenvalues: the sum of |root|^2 over
    the clearly real roots, and over all roots.  One eigen-solve serves
    every signature's m estimate, for every ball s+t <= st.

    A leaf is not solved, and gets the sums (0, inf), when exact
    coefficient bounds already put every signature's m estimate above one.
    The estimate times s+t is (T + R) / 2, with T the total and R the
    clearly real part.  T is at least the square-sum floor F, and R at
    least the real-root floor R_c, so the leaf is skipped when
    (max(F, R_c) + R_c) / 2 exceeds st (1 + FLOOR_MARGIN); R_c is only read
    on the leaves F alone leaves open.  The eigen path agrees: a real
    matrix's computed spectrum is conjugate-symmetric, so the odd number of
    roots beyond a point c with a sign change leaves an exactly real
    eigenvalue there, which the estimate counts as clearly real.  The margin
    covers F's float root and the eigenvalue error by orders of magnitude.
    st = inf solves every leaf.
    """
    k, n = leaves.shape
    real_part, total = np.zeros(k), np.full(k, np.inf)
    cut = 2 * st * (1 + FLOOR_MARGIN)
    for lo in range(0, k, PRESCREEN_CHUNK):
        chunk = leaves[lo : lo + PRESCREEN_CHUNK]
        floor = _square_sum_floor(chunk)
        rows = np.flatnonzero(floor <= cut)  # the leaves F leaves open
        real_floor = _real_root_floor(chunk[rows])
        rows = lo + rows[np.maximum(floor[rows], real_floor) + real_floor <= cut]
        companion = np.zeros((len(rows), n, n))
        if n > 1:
            companion[:, 1:, :-1] = np.eye(n - 1)
        companion[:, 0, :] = -leaves[rows]
        ev = np.linalg.eigvals(companion)
        mod2 = ev.real**2 + ev.imag**2
        clearly_real = np.abs(ev.imag) < 1e-7 * (1 + np.abs(ev.real))
        total[rows] = mod2.sum(axis=1)
        real_part[rows] = np.where(clearly_real, mod2, 0.0).sum(axis=1)
    return real_part, total


def _prescreen(sums: Tuple[np.ndarray, np.ndarray], st: int) -> np.ndarray:
    """Safe numeric discard on estimated m alone: True where a leaf is kept,
    which includes anything ambiguous.

    A root that is not clearly real is counted as half of a complex pair,
    which can only lower the estimate.  A leaf that _companion_sums left
    unsolved has the sums (0, inf), so its estimate is inf and it is
    discarded; (inf, inf) would give NaN, which is kept.
    """
    real_part, total = sums
    m_est = (real_part + (total - real_part) / 2.0) / st
    return ~(m_est > 1.0 + PRESCREEN_M_GUARD)


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


@dataclass(frozen=True)
class SearchReport:
    degree: int
    groups: Tuple[SearchGroup, ...]
    inconclusive: Tuple[Tuple[IntPolynomial, float], ...]
    stats: Dict[str, int]
    wall_time: float  # diagnostics

    def total_count(self) -> int:
        return sum(g.count for g in self.groups)


# -- orchestration --------------------------------------------------------------------

def admissible_signatures(n: int) -> List[Tuple[int, int]]:
    """Signatures with s·t != 0 at degree n; m >= 1 is forced otherwise."""
    return [(n - 2 * t, t) for t in range(1, (n - 1) // 2 + 1)]


def _m_value(coeffs: Sequence[int], n: int) -> float:
    return size_profile(find_roots(_to_polynomial(coeffs, n))).m


def _scan_slice(
    n: int, signatures: Sequence[Tuple[int, int]], a1_values: Sequence[int]
) -> List[Tuple[Counter, List[Tuple[Tuple[int, ...], float]]]]:
    """The search pipeline on one slice of a_1 values, for every signature
    of the degree at once: walk, prescreen, exact signature and
    irreducibility, then m.

    The walk runs once per a_1 value, on the largest ball (the signatures
    come largest s+t first), and marks the leaves each smaller ball admits;
    the companion eigenvalues are computed once per leaf.  Returns, per
    signature, the stage counts and every (a_1..a_n, m) with m <= 1 +
    M_GUARD; the walk lists one member per mirror orbit, so the mirror is
    returned too where its own m passes that test.
    """
    sts = [s + t for s, t in signatures]
    parts = [(Counter(generated=0, passed_prescreen=0), []) for _ in signatures]
    for a1 in a1_values:
        leaves, admitted = _walk(n, [a1], [2 * st for st in sts], False)
        sums = _companion_sums(leaves, sts[0])
        for (s, _), st, mask, (counts, found) in zip(signatures, sts, admitted, parts):
            survivors = leaves[mask & _prescreen(sums, st)].tolist()
            counts["generated"] += int(mask.sum())
            counts["passed_prescreen"] += len(survivors)
            for coeffs in map(tuple, survivors):
                if not is_irreducible_of_signature(_to_polynomial(coeffs, n), s):
                    continue
                counts["passed_irreducibility"] += 1
                m = _m_value(coeffs, n)
                if m > 1.0 + M_GUARD:
                    continue
                found.append((coeffs, m))
                mirror = _mirror_coeffs(coeffs)
                if mirror != coeffs:
                    # the mirror passes the same filters by symmetry; its m is
                    # mathematically equal but recomputed from its own roots
                    # so the float agrees bit-for-bit with a search that lists
                    # both orbit members
                    mirror_m = _m_value(mirror, n)
                    if mirror_m <= 1.0 + M_GUARD:
                        found.append((mirror, mirror_m))
        # free this slice's arrays before the next walk builds its own
        del leaves, admitted, mask, sums
    return parts


def enumerate_m_lt_one(
    n: int,
    signature_filter: Optional[Tuple[int, int]] = None,
    threads: int = 1,
) -> SearchReport:
    """All monic irreducible integer polynomials of degree n with m < 1.

    Degrees above MAX_SEARCH_DEGREE are refused before the walk.  Threads
    split the a_1 values of the degree.
    """
    if not 2 <= n <= MAX_SEARCH_DEGREE:
        raise ValueError(f"degree must be within [2, {MAX_SEARCH_DEGREE}]")
    signatures = admissible_signatures(n)
    if signature_filter is not None:
        sf = (int(signature_filter[0]), int(signature_filter[1]))
        if sf not in signatures:
            raise ValueError(f"signature {sf} not admissible at degree {n}")
        signatures = [sf]

    t0 = time.perf_counter()
    stats = Counter(
        generated=0, passed_prescreen=0, passed_irreducibility=0, passed_m=0
    )
    parts = []
    if signatures:
        st = sum(signatures[0])  # the largest ball
        upper, _, _ = _windows(n, 2 * st, False)
        a1_values = list(range(upper[1] + 1))
        workers = max(1, min(threads, len(a1_values)))
        jobs = [(n, signatures, a1_values[i::workers]) for i in range(workers)]
        if workers == 1:
            parts = [_scan_slice(*jobs[0])]
        else:
            import multiprocessing  # imported here: it costs every serial run ~5 ms

            with multiprocessing.get_context("fork").Pool(workers) as pool:
                parts = pool.starmap(_scan_slice, jobs)
    groups = []
    inconclusive: List[Tuple[IntPolynomial, float]] = []
    for j, (s, t) in enumerate(signatures):
        found: List[Tuple[IntPolynomial, float]] = []
        for part in parts:
            counts, pairs = part[j]
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
        wall_time=time.perf_counter() - t0,
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
    leaves, _ = _walk(degree, None, [bound_sq / w_desc[-1]], True)
    for coeffs in map(tuple, leaves.tolist()):
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
