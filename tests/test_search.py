"""Exhaustive m < 1 search: boxes, tables, prune soundness, subelement scans.

The degree 3-6 result sets are frozen below in full. Each member was
certified outside the search pipeline before freezing: irreducibility by
exhaustive trial division against every monic integer factor of degree 1-3
(complete by Gauss's lemma), signature and m from 50-digit roots plus exact
Sturm counts. The degree-6 signature (2,2) set has 38 members (16 mirror
pairs and 6 even-coefficient singletons); sets of this shape always have an
even count plus the singleton count, and all 6 singletons are certified.
"""
import math
from math import comb, factorial, isqrt

import pytest

from minklat.constants import UNIVERSAL_M_FLOOR
from minklat.intpoly import IntPolynomial, parse_polynomial, sturm_real_count
from minklat.measures import m_lower_bound_signature
from minklat.search import (
    _mirror_coeffs,
    _prescreen,
    _to_polynomial,
    _walk_pruned,
    admissible_signatures,
    coefficient_bounds,
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
        for g in r.groups:
            assert g.count == len(g.entries)
        assert r.stats["passed_m"] == r.total_count()
        assert r.stats["generated"] >= r.stats["passed_prescreen"]
        assert r.stats["passed_prescreen"] >= r.stats["passed_irreducibility"]
        assert r.wall_time > 0


@pytest.mark.slow
def test_entries_sorted_ascending(search_report_6):
    for g in search_report_6.groups:
        ms = [m for _, m in g.entries]
        assert ms == sorted(ms)


# -- prune soundness -------------------------------------------------------------------

def test_prescreen_keeps_every_table_member_and_its_mirror():
    # the pruned and the raw walk share this one float discard, so their
    # agreement cannot catch an m guard tightened past a table member
    for table in (DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE):
        for text, _ in table:
            p = parse_polynomial(text)
            n = p.degree
            s = sturm_real_count(p)
            coeffs = tuple(reversed(p.coefficients[:-1]))  # a_1..a_n
            for c in (coeffs, _mirror_coeffs(coeffs)):
                assert _prescreen([c], n, s + (n - s) // 2) == [c], (text, c)


def test_pruned_equals_raw_degree3(search_report_3):
    raw = enumerate_m_lt_one(3, prune=False)
    assert _flat(raw) == _flat(search_report_3)
    assert raw.stats["generated"] == 495  # the full (2·4+1)(2·5+1)(2·2+1) box


def test_pruned_equals_raw_degree4(search_report_4):
    raw = enumerate_m_lt_one(4, prune=False)
    assert _flat(raw) == _flat(search_report_4)


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


@pytest.mark.parametrize(
    "n, rho", [(2, 3), (2, 4.5), (2, 13), (3, 6), (3, 7.5), (3, 9), (4, 6), (4, 10)]
)
def test_totally_real_walk_covers_brute_force_box(n, rho):
    walk = _walk_pruned(n, None, rho, True, False)
    covered = set(walk) | {_mirror_coeffs(c) for c in walk}
    box = _totally_real_box(n, rho)
    assert box  # the oracle is not vacuous
    assert sorted(box - covered) == []


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
    with pytest.raises(ValueError):
        enumerate_m_lt_one(9)
    with pytest.raises(ValueError):
        enumerate_m_lt_one(5, prune=False)
    with pytest.raises(ValueError):
        enumerate_m_lt_one(5, signature_filter=(2, 1))


def test_degree2_is_empty():
    r = enumerate_m_lt_one(2)
    assert r.groups == ()
    assert r.total_count() == 0


# -- serialization ----------------------------------------------------------------------

def test_report_json_and_csv(search_report_3):
    d = search_report_3.to_json_dict()
    assert d["degree"] == 3
    assert d["groups"][0]["signature"] == [1, 1]
    assert d["groups"][0]["count"] == 4
    assert d["pruned"] is True
    rows = search_report_3.csv_rows()
    assert rows[0] == ("(1,1)", "x^3-x^2+1", "0.947279124", "0.944940787")
    assert len(rows) == 4


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
        subelement_scan(3.0, 4, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        subelement_scan(3.0, 2, (1,))
    with pytest.raises(ValueError):
        subelement_scan(3.0, 2, (0, 1))
    with pytest.raises(ValueError):
        subelement_scan(2.5, 2, (1, 1))
