"""Exhaustive m < 1 search: tables, prune soundness against the raw
coefficient box (tests/search_oracle.py), the walk, subelement scans.

The degree 3-6 result sets are frozen below in full. Each member was
certified outside the search pipeline before freezing: irreducibility by
exhaustive trial division against every monic integer factor of degree 1-3
(complete by Gauss's lemma), signature and m from 50-digit roots plus exact
Sturm counts. The degree-6 signature (2,2) set has 38 members (16 mirror
pairs and 6 even-coefficient singletons); sets of this shape always have an
even count plus the singleton count, and all 6 singletons are certified.
"""
import math
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from minklat.constants import UNIVERSAL_M_FLOOR
from minklat.intpoly import (
    IntPolynomial,
    is_irreducible_of_signature,
    parse_polynomial,
    sturm_real_count,
)
from minklat.measures import m_lower_bound_signature
from minklat import search
from search_oracle import coefficient_bounds, raw_box, raw_box_search
from minklat.search import (
    FLOOR_MARGIN,
    M_GUARD,
    _companion_sums,
    _mirror_coeffs,
    _prescreen,
    _real_root_floor,
    _square_sum_floor,
    _to_polynomial,
    _walk,
    admissible_signatures,
    enumerate_m_lt_one,
    subelement_scan,
)

DEG3_TABLE = [
    ("x^3-x^2+1", 0.947279124),
    ("x^3+x^2-1", 0.947279124),
    ("x^3+x-1", 0.965571232),
    ("x^3+x+1", 0.965571232),
]

DEG4_TABLE = [
    ("x^4+x^2-1", 0.951367322),
    ("x^4+x^3+x^2-x-1", 0.979971692),
    ("x^4-x^3+x^2+x-1", 0.979971692),
]

DEG5_TABLE = [
    ("x^5-x^3+x^2+x-1", 0.961783776),
    ("x^5-x^3-x^2+x+1", 0.961783776),
    ("x^5+x^3+x-1", 0.971093036),
    ("x^5+x^3+x+1", 0.971093036),
    ("x^5+x^4+x^3+x^2-1", 0.972661952),
    ("x^5-x^4+x^3-x^2+1", 0.972661952),
    ("x^5-x^2+1", 0.974880412),
    ("x^5+x^2-1", 0.974880412),
    ("x^5-x^4+x^3-x^2+2x-1", 0.981487048),
    ("x^5+x^4+x^3+x^2+2x+1", 0.981487048),
    ("x^5+x^3-1", 0.986003401),
    ("x^5+x^3+1", 0.986003401),
    ("x^5+x^2+x-1", 0.990160906),
    ("x^5-x^2+x+1", 0.990160906),
    ("x^5+x^4-1", 0.990571355),
    ("x^5-x^4+1", 0.990571355),
    ("x^5+x^4+x^3-x-1", 0.991397433),
    ("x^5-x^4+x^3-x+1", 0.991397433),
    ("x^5+x^3+x^2+x+1", 0.991680899),
    ("x^5+x^3-x^2+x-1", 0.991680899),
    ("x^5+x^4+x^3+x+1", 0.993478021),
    ("x^5-x^4+x^3+x-1", 0.993478021),
]

DEG6_TABLE = [
    ("x^6+x^2-1", 0.946467799),
    ("x^6+x^4+x^2-1", 0.949946039),
    ("x^6+x^4-1", 0.952920796),
    ("x^6+x^5+x^4-x-1", 0.959082150),
    ("x^6-x^5+x^4+x-1", 0.959082150),
    ("x^6+2x^2-1", 0.969256808),
    ("x^6-x^5+2x^4-x^3+x^2-1", 0.972053278),
    ("x^6+x^5+2x^4+x^3+x^2-1", 0.972053278),
    ("x^6+x^3+x^2-x-1", 0.975299231),
    ("x^6-x^3+x^2+x-1", 0.975299231),
    ("x^6-x^5+x^4+x^2-1", 0.975364229),
    ("x^6+x^5+x^4+x^2-1", 0.975364229),
    ("x^6+x^5+x^2-x-1", 0.976397546),
    ("x^6-x^5+x^2+x-1", 0.976397546),
    ("x^6-2x^4+3x^2-1", 0.977431144),
    ("x^6+x^5+2x^4+x^3+x^2-x-1", 0.978229078),
    ("x^6-x^5+2x^4-x^3+x^2+x-1", 0.978229078),
    ("x^6-x^4+x^3+2x^2-x-1", 0.979624724),
    ("x^6-x^4-x^3+2x^2+x-1", 0.979624724),
    ("x^6+2x^5+3x^4+2x^3+x^2-x-1", 0.981261553),
    ("x^6-2x^5+3x^4-2x^3+x^2+x-1", 0.981261553),
    ("x^6-x^5+2x^2-1", 0.981589132),
    ("x^6+x^5+2x^2-1", 0.981589132),
    ("x^6+x^4+x^2-x-1", 0.986484380),
    ("x^6+x^4+x^2+x-1", 0.986484380),
    ("x^6-x^5+x^4-x^3+2x^2-1", 0.988038639),
    ("x^6+x^5+x^4+x^3+2x^2-1", 0.988038639),
    ("x^6-x^3+2x^2-1", 0.991490260),
    ("x^6+x^3+2x^2-1", 0.991490260),
    ("x^6+x^4+2x^2-1", 0.994261088),
    ("x^6+x^5+x^3+2x^2-x-1", 0.994588882),
    ("x^6-x^5-x^3+2x^2+x-1", 0.994588882),
    ("x^6+x^5+x^4+x^2-x-1", 0.995563982),
    ("x^6-x^5+x^4+x^2+x-1", 0.995563982),
    ("x^6+x^5+x^4-x^2-2x-1", 0.998869979),
    ("x^6-x^5+x^4-x^2+2x-1", 0.998869979),
    ("x^6+x^4+x^3+x^2-x-1", 0.999092168),
    ("x^6+x^4-x^3+x^2+x-1", 0.999092168),
]


# -- coefficient boxes ---------------------------------------------------------------

def test_coefficient_bounds_reference_values():
    assert coefficient_bounds(3, 2) == [4, 5, 2]
    assert coefficient_bounds(6, 4)[5] == 63
    assert coefficient_bounds(1, 1) == [0]


def test_coefficient_bounds_strictly_below():
    for n in range(1, 9):
        for st in range(1, n + 1):
            for i, b in enumerate(coefficient_bounds(n, st), start=1):
                # b^2 < C^2 st^i <= (b+1)^2
                target = comb(n, i) ** 2 * st**i
                assert b * b < target
                assert (b + 1) * (b + 1) >= target


def test_coefficient_bounds_validation():
    with pytest.raises(ValueError):
        coefficient_bounds(3, 4)
    with pytest.raises(ValueError):
        coefficient_bounds(3, 0)


def test_admissible_signatures():
    assert admissible_signatures(3) == [(1, 1)]
    assert admissible_signatures(6) == [(4, 1), (2, 2)]
    assert admissible_signatures(2) == []
    assert admissible_signatures(8) == [(6, 1), (4, 2), (2, 3)]


# -- table reproduction ---------------------------------------------------------------

def _flat(report):
    return [
        (g.signature, p.to_text(), m) for g in report.groups for p, m in g.entries
    ]


def test_degree3_table(search_report_3):
    rows = _flat(search_report_3)
    assert [r[1] for r in rows] == [t for t, _ in DEG3_TABLE]
    for (sig, text, m), (_, m_ref) in zip(rows, DEG3_TABLE):
        assert sig == (1, 1)
        assert abs(m - m_ref) < 1e-6


def test_degree4_table(search_report_4):
    rows = _flat(search_report_4)
    assert [r[1] for r in rows] == [t for t, _ in DEG4_TABLE]
    for (sig, text, m), (_, m_ref) in zip(rows, DEG4_TABLE):
        assert sig == (2, 1)
        assert abs(m - m_ref) < 1e-6


def test_degree5_table(search_report_5):
    by_sig = {g.signature: g for g in search_report_5.groups}
    assert by_sig[(3, 1)].count == 0
    g = by_sig[(1, 2)]
    assert g.count == 22
    assert [p.to_text() for p, _ in g.entries] == [t for t, _ in DEG5_TABLE]
    for (p, m), (_, m_ref) in zip(g.entries, DEG5_TABLE):
        assert abs(m - m_ref) < 1e-6


@pytest.mark.slow
def test_degree6_table(search_report_6):
    by_sig = {g.signature: g for g in search_report_6.groups}
    assert by_sig[(4, 1)].count == 0
    g = by_sig[(2, 2)]
    assert g.count == 38
    assert [p.to_text() for p, _ in g.entries] == [t for t, _ in DEG6_TABLE]
    for (p, m), (_, m_ref) in zip(g.entries, DEG6_TABLE):
        assert abs(m - m_ref) < 1e-6
    assert g.entries[0][0].to_text() == "x^6+x^2-1"
    assert abs(g.entries[0][1] - 0.946467799117053) < 1e-9


@pytest.mark.slow
def test_no_inconclusive_through_degree_6(
    search_report_3, search_report_4, search_report_5, search_report_6
):
    for r in (search_report_3, search_report_4, search_report_5, search_report_6):
        assert r.inconclusive == ()


# -- invariants ------------------------------------------------------------------------

@pytest.mark.slow
def test_every_m_above_universal_and_signature_floors(
    search_report_3, search_report_4, search_report_5, search_report_6
):
    for r in (search_report_3, search_report_4, search_report_5, search_report_6):
        for g in r.groups:
            lb = m_lower_bound_signature(*g.signature)
            assert abs(g.lower_bound - lb) < 1e-12
            for p, m in g.entries:
                assert m > UNIVERSAL_M_FLOOR
                assert m > lb - 1e-9


@pytest.mark.slow
def test_constant_terms_are_units(search_report_5, search_report_6):
    for r in (search_report_5, search_report_6):
        for g in r.groups:
            for p, _ in g.entries:
                assert p.constant_term in (-1, 1)


@pytest.mark.slow
def test_mirror_closure(search_report_5, search_report_6):
    # the m < 1 set is closed under x -> -x, and both members are listed
    for r in (search_report_5, search_report_6):
        for g in r.groups:
            texts = {p.to_text() for p, _ in g.entries}
            for p, _ in g.entries:
                mirrored = p.negate_variable()
                if mirrored.leading_coefficient < 0:
                    mirrored = -mirrored
                assert mirrored.to_text() in texts


@pytest.mark.slow
def test_counts_match_lengths(search_report_5, search_report_6):
    for r in (search_report_5, search_report_6):
        assert r.stats["passed_m"] == r.total_count()
        assert r.stats["generated"] >= r.stats["passed_prescreen"]
        assert r.stats["passed_prescreen"] >= r.stats["passed_irreducibility"]
        assert r.wall_time > 0


def test_search_counters_degree3(search_report_3):
    assert search_report_3.stats == {
        "generated": 15,
        "passed_prescreen": 2,
        "passed_irreducibility": 2,
        "passed_m": 4,
    }


def test_search_counters_degree4(search_report_4):
    assert search_report_4.stats == {
        "generated": 314,
        "passed_prescreen": 33,
        "passed_irreducibility": 2,
        "passed_m": 3,
    }


def test_search_counters_degree5(search_report_5):
    assert search_report_5.stats == {
        "generated": 22911,
        "passed_prescreen": 403,
        "passed_irreducibility": 11,
        "passed_m": 22,
    }


@pytest.mark.slow
def test_search_counters_degree6(search_report_6):
    # (4,1): 3,560,524 leaves, 6,146 pass the prescreen; (2,2): 671,577 and 751
    assert search_report_6.stats["generated"] == 4232101
    assert search_report_6.stats["passed_prescreen"] == 6897


@pytest.mark.slow
def test_entries_sorted_ascending(search_report_6):
    for g in search_report_6.groups:
        ms = [m for _, m in g.entries]
        assert ms == sorted(ms)


# -- prune soundness -------------------------------------------------------------------

def test_prescreen_keeps_every_table_member_and_its_mirror():
    # the walk and the raw-box oracle share this one float discard, so their
    # agreement cannot catch an m guard tightened past a table member
    for table in (DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE):
        for text, _ in table:
            p = parse_polynomial(text)
            n = p.degree
            s = sturm_real_count(p)
            coeffs = tuple(reversed(p.coefficients[:-1]))  # a_1..a_n
            for c in (coeffs, _mirror_coeffs(coeffs)):
                st = s + (n - s) // 2
                sums = _companion_sums(np.array([c], dtype=np.int64), st)
                assert _prescreen(sums, st).tolist() == [True], (text, c)


def _prescreen_leaves(n, a1_values, walk):
    """The leaves the prescreen sees, with every signature's s+t and
    admitted mask: the walk's for these a_1 values (None: all of them), as
    _scan_slice hands them over, or else the whole raw box of the largest
    ball, as raw_box_search hands it over (its a_1 of either sign sends
    wider coefficients through the floors)."""
    sts = [s + t for s, t in admissible_signatures(n)]
    if walk:
        leaves, admitted = _walk(n, a1_values, [2 * st for st in sts], False)
        return sts, leaves, admitted
    assert a1_values is None
    leaves = raw_box(n, sts[0])
    return sts[:1], leaves, np.ones((1, len(leaves)), dtype=bool)


# every walk leaf at degrees 3-5, every raw-box leaf at degrees 3-4, and one
# degree-6 a_1 slice of the walk
FLOOR_CASES = [
    (3, None, True),
    (4, None, True),
    (5, None, True),
    (3, None, False),
    (4, None, False),
    pytest.param(6, [0], True, marks=pytest.mark.slow),
]
_FLOOR_CASE_CACHE = {}


def _floor_case(n, a1_values, walk):
    """_prescreen_leaves of one FLOOR_CASES entry and the all-leaf
    eigen-solve _companion_sums(leaves, inf), computed once for every test
    of the case (the degree-6 slice takes seconds) and made read-only."""
    key = (n, None if a1_values is None else tuple(a1_values), walk)
    if key not in _FLOOR_CASE_CACHE:
        sts, leaves, admitted = _prescreen_leaves(n, a1_values, walk)
        solved = _companion_sums(leaves, math.inf)
        for array in (leaves, admitted, *solved):
            array.flags.writeable = False
        _FLOOR_CASE_CACHE[key] = sts, leaves, admitted, solved
    return _FLOOR_CASE_CACHE[key]


@pytest.mark.parametrize("n, a1_values, walk", FLOOR_CASES)
def test_square_sum_floor_is_below_the_eigenvalue_sum(n, a1_values, walk):
    _, leaves, _, (_, total) = _floor_case(n, a1_values, walk)
    assert np.all(_square_sum_floor(leaves) <= total * (1 + 1e-12))


@pytest.mark.parametrize("n, a1_values, walk", FLOOR_CASES)
def test_real_root_floor_is_below_the_real_eigenvalue_sum(n, a1_values, walk):
    # the eigenvalues that come out exactly real, as the prescreen sees them
    _, leaves, _, _ = _floor_case(n, a1_values, walk)
    companion = np.zeros((len(leaves), n, n))
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, 0, :] = -leaves
    ev = np.linalg.eigvals(companion)
    real_sum = np.where(ev.imag == 0, ev.real**2, 0.0).sum(axis=1)
    assert np.all(_real_root_floor(leaves) <= real_sum * (1 + 1e-12))


@pytest.mark.parametrize(
    "text, floor",
    [
        ("x^2+1", 0.0),
        ("x^2-2", 2.0),  # roots +-1.414: f(1) < 0 and f(-1) < 0
        ("x^2-4", 4.5),  # f(2) = 0 proves nothing; f(3/2) < 0 does
        ("x^2+x-7", 13.0),  # roots 2.19 and -3.19
        ("x^3-7x", 12.5),  # roots 0 and +-2.65
        ("x^3-10", 4.0),  # one root, 2.15
        ("x^4-x-1", 1.0),  # roots 1.22 and -0.72
    ],
)
def test_real_root_floor_reads_the_largest_sign_change_on_each_side(text, floor):
    p = parse_polynomial(text)
    leaf = np.array([p.coefficients[-2::-1]], dtype=np.int64)
    assert _real_root_floor(leaf).tolist() == [floor]


@pytest.mark.parametrize("n, a1_values, walk", FLOOR_CASES)
def test_floor_keeps_the_survivors_of_the_all_leaf_eigen_path(n, a1_values, walk):
    sts, leaves, admitted, solved = _floor_case(n, a1_values, walk)
    floored = _companion_sums(leaves, sts[0])
    skipped = np.isinf(floored[1])
    assert skipped.any()
    # the real-root floor skips leaves that the square-sum floor leaves open
    open_by_square_sum = _square_sum_floor(leaves) <= 2 * sts[0] * (1 + FLOOR_MARGIN)
    assert (skipped & open_by_square_sum).any()
    # a leaf the floor leaves to the eigen-solve gets the same floats
    for f, s in zip(floored, solved):
        assert np.array_equal(f[~skipped], s[~skipped])
    for st, mask in zip(sts, admitted):
        kept = leaves[mask & _prescreen(floored, st)].tolist()
        assert kept == leaves[mask & _prescreen(solved, st)].tolist(), st


def test_floor_leaves_a_double_root_leaf_at_the_ball_to_the_eigen_solve():
    # the mirror of (x^2-x-1)^2: its double roots make the eigenvalues'
    # real/complex split decide the estimate, and sum |alpha|^2 = 6 = 2(s+t)
    # equals the floor, so the floor must not decide it
    leaf = (2, -1, -2, 1)
    square = parse_polynomial("x^2-x-1") * parse_polynomial("x^2-x-1")
    assert _to_polynomial(_mirror_coeffs(leaf), 4) == square
    assert list(leaf) in _walk(4, [2], [6], False)[0].tolist()
    leaves = np.array([leaf], dtype=np.int64)
    assert _square_sum_floor(leaves).tolist() == [6.0]
    floored = _companion_sums(leaves, 3)
    solved = _companion_sums(leaves, math.inf)
    assert np.isfinite(floored[1]).all()
    for f, s in zip(floored, solved):
        assert np.array_equal(f, s)
    assert _prescreen(floored, 3).tolist() == _prescreen(solved, 3).tolist()


def test_pruned_equals_raw_degree3(search_report_3):
    raw = raw_box_search(3)
    assert _flat(raw) == _flat(search_report_3)
    assert raw.stats["generated"] == 495  # the full (2·4+1)(2·5+1)(2·2+1) box


def test_pruned_equals_raw_degree4(search_report_4):
    raw = raw_box_search(4)
    assert _flat(raw) == _flat(search_report_4)


def test_pruned_scan_drops_a_mirror_whose_own_m_is_above_the_guard(monkeypatch):
    # the mirror's m is computed from its own roots; where that float lands
    # above 1 + M_GUARD the mirror is dropped, as the raw-box oracle drops it
    a1_values = [0, 1, 2]
    [(_, found)] = search._scan_slice(3, [(1, 1)], a1_values)
    leaves = set(_leaves(3, a1_values, 4, False, True))
    pushed = {_mirror_coeffs(c) for c in leaves} - leaves
    assert pushed & {c for c, _ in found}
    real_m_value = search._m_value

    def m_value(coeffs, n):
        return 1.0 + 2 * M_GUARD if coeffs in pushed else real_m_value(coeffs, n)

    monkeypatch.setattr(search, "_m_value", m_value)
    [(_, kept)] = search._scan_slice(3, [(1, 1)], a1_values)
    assert kept == [(c, m) for c, m in found if c not in pushed]


def _real_rooted(poly):
    # squarefree with all roots real; sturm_real_count raises otherwise
    try:
        return sturm_real_count(poly) == poly.degree
    except ValueError:
        return False


def _totally_real_box(n, rho):
    """Brute force over the box |a_k| <= C(n,k) rho^(k/2) of roots of modulus
    at most sqrt(rho): every squarefree totally real polynomial with
    p2 <= rho and f(0), f(1), f(-1) nonzero.  A head a_1..a_j is extended
    only if p2 <= rho (once j >= 2) and, by Rolle, the (n-j)-th derivative
    it fixes is squarefree and real-rooted."""
    box = [int(comb(n, k) * rho ** (k / 2)) for k in range(1, n + 1)]
    found = set()

    def extend(head):
        j = len(head)
        if j >= 2 and head[0] ** 2 - 2 * head[1] > rho:
            return
        if j == n:
            poly = _to_polynomial(head, n)
            if 0 not in (head[-1], poly(1), poly(-1)) and _real_rooted(poly):
                found.add(head)
            return
        if j >= 2:
            a = (1,) + head
            deriv = [a[j - e] * factorial(n - j + e) // factorial(e) for e in range(j + 1)]
            if not _real_rooted(IntPolynomial(deriv)):
                return
        for ak in range(-box[j], box[j] + 1):
            extend(head + (ak,))

    extend(())
    return found


def _admits(n, rho, totally_real):
    """The walk's window test on a_k and its power sum p_k, decided exactly
    on the ball sum |alpha_i|^2 <= rho: a_k^2 n^k <= C(n,k)^2 rho^k
    (Maclaurin), p_1^2 <= n rho, p_k^2 <= rho^k at every depth k >= 2, the
    leaf included, and p_k >= 0 for even k if totally_real."""
    r = Fraction(rho)

    def admits(k, ak, pk):
        if ak * ak * n**k > comb(n, k) ** 2 * r**k:
            return False
        if k == 1:
            return pk * pk <= n * r
        if totally_real and k % 2 == 0 and pk < 0:
            return False
        return pk * pk <= r**k

    return admits


def _window_box(n, rho, totally_real, unit_constant):
    """Brute force over the box |a_k| <= C(n,k) rho^(k/2), filtered by
    _admits, a_n = +-1 if unit_constant (else a_n != 0), and f(1), f(-1) !=
    0.  Each test reads only a_1..a_k, so a head is extended only while it
    passes."""
    admits = _admits(n, rho, totally_real)
    r = Fraction(rho)
    found = set()

    def extend(head, sums):
        k = len(head) + 1
        if k > n:
            poly = _to_polynomial(head, n)
            if poly(1) and poly(-1):
                found.add(head)
            return
        if k == n and unit_constant:
            values = (-1, 1)
        else:
            b = math.isqrt(math.floor(comb(n, k) ** 2 * r**k))
            values = [ak for ak in range(-b, b + 1) if ak or k < n]
        for ak in values:
            # Newton: p_k = -k a_k - sum_{i<k} a_i p_(k-i)
            pk = -k * ak - sum(head[i - 1] * sums[k - i - 1] for i in range(1, k))
            if admits(k, ak, pk):
                extend(head + (ak,), sums + (pk,))

    extend((), ())
    return found


def _leaves(n, a1_values, rho, totally_real, unit_constant):
    # the walker's two configurations: the search's and the totally real one
    assert unit_constant != totally_real
    leaves, admitted = _walk(n, a1_values, [rho], totally_real)
    assert admitted.all()
    return [tuple(c) for c in leaves.tolist()]


def _walk_reference(n, rho, totally_real, unit_constant):
    """The recursive, depth-first form of the Newton-window walk: each a_k
    runs ascending over its Maclaurin cap and is kept where _admits passes,
    with a_k >= 0 at odd k while every earlier odd a_i is 0 (one member per
    mirror orbit).  The order oracle for the vectorized search._walk."""
    admits = _admits(n, rho, totally_real)
    r = Fraction(rho)
    out = []

    def walk(head, sums, sym_open):
        k = len(head) + 1
        center = -sum(head[i - 1] * sums[k - i - 1] for i in range(1, k))
        if k == n and unit_constant:
            values = (-1, 1)
        else:
            cap = math.isqrt(math.floor(comb(n, k) ** 2 * (r / n) ** k))
            values = range(-cap, cap + 1)
        odd = k % 2 == 1
        for ak in values:
            pk = center - k * ak
            if (odd and sym_open and ak < 0) or not admits(k, ak, pk):
                continue
            if k < n:
                walk(head + (ak,), sums + (pk,), sym_open and not (odd and ak))
            elif ak:
                poly = _to_polynomial(head + (ak,), n)
                if poly(1) and poly(-1):
                    out.append(head + (ak,))

    walk((), (), True)
    return out


WALK_BALLS = (
    # the search's balls rho = 2(s+t), a_n = +-1
    [(n, 2 * (s + t), False, True) for n in (3, 4, 5) for s, t in admissible_signatures(n)]
    # check_smyth's totally real balls rho = 3n/2
    + [(n, 1.5 * n, True, False) for n in (2, 3, 4, 5)]
    # the subelement balls bound/w_min of test_subelement_reference_boxes_empty
    + [(2, 3.0, True, False), (3, 4.0, True, False), (3, 5.0, True, False)]
)


@pytest.mark.parametrize("n, rho, totally_real, unit_constant", WALK_BALLS)
def test_walk_lists_the_reference_leaves_in_order(n, rho, totally_real, unit_constant):
    reference = _walk_reference(n, rho, totally_real, unit_constant)
    assert reference  # the oracle is not vacuous
    assert _leaves(n, None, rho, totally_real, unit_constant) == reference


@pytest.mark.parametrize(
    "n, rho, totally_real, leaf",
    [
        (4, 6, False, (2, 0, -7, -1)),  # p_4 = -36
        (3, 4, False, (1, 2, -1)),  # p_3 = 8
        (2, 3, True, (1, -1)),  # x^2+x-1, check_smyth's equality case
    ],
)
def test_walk_lists_a_leaf_on_its_window_edge(n, rho, totally_real, leaf):
    # the leaf's p_n meets p_n^2 <= rho^n with equality, so a strict test
    # at the leaf would drop it
    sums = []  # Newton: p_k = -k a_k - sum_{i<k} a_i p_(k-i)
    for k in range(1, n + 1):
        center = -sum(leaf[i - 1] * sums[k - i - 1] for i in range(1, k))
        sums.append(center - k * leaf[k - 1])
    assert sums[-1] ** 2 == rho**n
    assert leaf in _leaves(n, None, rho, totally_real, not totally_real)


def _assert_nested(n):
    # the per-degree walk, one a_1 value at a time as the search runs it:
    # each signature's admitted leaves are that signature's own walk
    rhos = [2 * (s + t) for s, t in admissible_signatures(n)]
    for a1 in range(math.isqrt(n * rhos[0]) + 1):
        leaves, admitted = _walk(n, [a1], rhos, False)
        assert admitted[0].all()
        for rho, mask in zip(rhos[1:], admitted[1:]):
            assert [tuple(c) for c in leaves[mask].tolist()] == _leaves(
                n, [a1], rho, False, True
            ), (a1, rho)


def test_walk_nests_the_smaller_signature_degree5():
    _assert_nested(5)


@pytest.mark.slow
def test_walk_nests_the_smaller_signature_degree6():
    _assert_nested(6)


@pytest.mark.parametrize("bound_sq", [1e13, 1e300, math.inf])
def test_walk_refuses_a_ball_beyond_exact_float_range(monkeypatch, bound_sq):
    # rho^(3/2) >= 3.2e19 > 2^63: p_3 of the ball no longer fits in int64,
    # so the walk must fail before building any array (and before an
    # infinite radius reaches as_integer_ratio)
    def no_array(*args, **kwargs):
        raise AssertionError("array built before the range check")

    for name in ("array", "asarray", "repeat", "arange", "full_like", "empty"):
        monkeypatch.setattr(np, name, no_array)
    with pytest.raises(ValueError, match="too large"):
        subelement_scan(bound_sq, 3, (1, 1, 1))


def test_walk_refuses_a_newton_sum_beyond_exact_float_range():
    # rho^(3/2) = 2.8e18 < 2^63, but the Newton sum a_1 p_2 + a_2 p_1 + 3 a_3
    # of the ball can reach about 1.1e19, past 2^63
    with pytest.raises(ValueError, match="too large"):
        _walk(3, None, [2e12], True)


def _walk_with_mirrors(n, rho, totally_real, unit_constant):
    walk = _leaves(n, None, rho, totally_real, unit_constant)
    assert len(set(walk)) == len(walk)
    return set(walk) | {_mirror_coeffs(c) for c in walk}


@pytest.mark.parametrize(
    "n, s, t", [(n, s, t) for n in (3, 4) for s, t in admissible_signatures(n)]
)
def test_search_walk_equals_filtered_box(n, s, t):
    box = _window_box(n, 2 * (s + t), False, True)
    assert box  # the oracle is not vacuous
    assert _walk_with_mirrors(n, 2 * (s + t), False, True) == box


@pytest.mark.parametrize(
    "n, rho", [(2, 3), (2, 4.5), (2, 13), (3, 6), (3, 7.5), (3, 9), (4, 6), (4, 10)]
)
def test_totally_real_walk_covers_brute_force_box(n, rho):
    covered = _walk_with_mirrors(n, rho, True, False)
    box = _totally_real_box(n, rho)
    assert box  # the oracle is not vacuous
    assert sorted(box - covered) == []
    assert covered == _window_box(n, rho, True, False)


def test_threads_agree_with_serial(search_report_5):
    threaded = enumerate_m_lt_one(5, threads=3)
    assert _flat(threaded) == _flat(search_report_5)


def test_signature_filter(search_report_5):
    only = enumerate_m_lt_one(5, signature_filter=(1, 2))
    assert len(only.groups) == 1
    assert only.groups[0].signature == (1, 2)
    assert only.groups[0].count == 22


# -- input validation -------------------------------------------------------------------

def test_degree_caps():
    with pytest.raises(ValueError):
        enumerate_m_lt_one(1)
    for n in (7, 8, 9):  # refused before the walk allocates anything
        with pytest.raises(ValueError, match=r"within \[2, 6\]"):
            enumerate_m_lt_one(n)
    with pytest.raises(ValueError):
        enumerate_m_lt_one(5, signature_filter=(2, 1))


def test_degree2_is_empty():
    r = enumerate_m_lt_one(2)
    assert r.groups == ()
    assert r.total_count() == 0


# -- subelement scans --------------------------------------------------------------------

def test_subelement_reference_boxes_empty():
    assert subelement_scan(3.0, 2, (2, 1)) == []
    assert subelement_scan(4.0, 3, (2, 1, 1)) == []
    assert subelement_scan(5.0, 3, (2, 2, 1)) == []


def test_subelement_detects_known_violator():
    # with unit weights and a ball of 4, the golden-ratio pair sits inside:
    # its conjugate squares sum to exactly 3
    violators = subelement_scan(4.0, 2, (1, 1))
    texts = {p.to_text() for p in violators}
    assert "x^2-x-1" in texts
    assert "x^2+x-1" in texts


def test_subelement_pattern_validation():
    with pytest.raises(ValueError):
        subelement_scan(3.0, 2, (1,))
    with pytest.raises(ValueError):
        subelement_scan(3.0, 2, (0, 1))
    with pytest.raises(ValueError):
        subelement_scan(0.0, 2, (1, 1))
    with pytest.raises(ValueError):
        subelement_scan(3.0, 1, (1,))


@pytest.mark.parametrize(
    "bound_sq, degree", [(8.0, 4), (7.5, 4), (7.5, 3), (5.5, 2)]
)
def test_subelement_scan_agrees_with_brute_force_box(bound_sq, degree):
    # with unit weights the weighted square sum is p_2 = a_1^2 - 2 a_2, an
    # integer: the violators are the irreducible totally real members of the
    # brute-force box with p_2 < bound_sq
    expected = sorted(
        _to_polynomial(head, degree).coefficients
        for head in _totally_real_box(degree, bound_sq)
        if head[0] ** 2 - 2 * head[1] < bound_sq
        and is_irreducible_of_signature(_to_polynomial(head, degree), degree)
    )
    assert expected  # the oracle is not vacuous
    violators = subelement_scan(bound_sq, degree, (1,) * degree)
    assert sorted(p.coefficients for p in violators) == expected
