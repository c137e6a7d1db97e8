"""Acceptance gate: the ten headline checks, one summary line each.

Each test covers one criterion end to end and registers a PASS line in the
terminal summary (see conftest). A failing assertion registers the FAIL line
before the test goes red, so the summary always shows all ten verdicts.

Known deviation, recorded in the summary lines where it shows: the published
degree-6 table for signature (2,2) lists 37 polynomials, but the exhaustive
certified search finds 38 (the full set is frozen in test_search.DEG6_TABLE,
every member certified independently of the search pipeline).
"""
import math
import time
from contextlib import contextmanager
from math import comb, isqrt

import mpmath
import pytest

from conftest import record_acceptance
from test_search import DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE

from minklat.constants import (
    ERDOS_TURAN_DEFAULT,
    ERDOS_TURAN_GANELIUS,
    INVERSE_PLASTIC_SQUARE_SIZE,
    PLASTIC_NUMBER,
    SEXTIC_MIN_M,
    SEXTIC_UNIT_ROOT,
    SIGNATURE_BOUND_ARGMIN,
    UNIVERSAL_M_FLOOR,
)
from minklat.intpoly import (
    discriminant,
    even_spread,
    is_irreducible,
    multinacci,
    parse_polynomial,
    sturm_real_count,
)
from minklat.lattice import build_embedding, brute_force_shortest, shortest_vector
from minklat.roots import find_roots, multinacci_location_check, pisot_check
from minklat.search import enumerate_m_lt_one, subelement_scan
from minklat.verify import (
    check_bhu1,
    check_erdos_turan_suite,
    check_kiy,
    check_root_extract,
    check_smyth,
    check_sum_asymptotic,
)


@contextmanager
def criterion(key: str, line_parts: list):
    """Register the verdict line whether the body passes or raises."""
    try:
        yield
    except BaseException:
        record_acceptance(key, f"{key}. FAIL  {'; '.join(line_parts) or 'see test log'}")
        raise
    record_acceptance(key, f"{key}. PASS  {'; '.join(line_parts)}")


def _table_polynomials(*reports):
    polys = []
    for report in reports:
        for group in report.groups:
            polys.extend(p for p, _ in group.entries)
    return polys


def _group(report, signature):
    for g in report.groups:
        if g.signature == signature:
            return g
    raise AssertionError(f"no group {signature} in degree-{report.degree} report")


def test_criterion_01_low_degree_tables(timed_search_34):
    parts = []
    with criterion("01", parts):
        r3, r4, elapsed = timed_search_34
        g3 = _group(r3, (1, 1))
        g4 = _group(r4, (2, 1))
        assert r3.total_count() == 4 and g3.count == 4
        assert r4.total_count() == 3 and g4.count == 3
        by_text3 = {p.to_text(): m for p, m in g3.entries}
        assert set(by_text3) == {"x^3-x^2+1", "x^3+x^2-1", "x^3+x-1", "x^3+x+1"}
        assert abs(by_text3["x^3-x^2+1"] - 0.947279) <= 1e-6
        assert abs(by_text3["x^3+x^2-1"] - 0.947279) <= 1e-6
        assert abs(by_text3["x^3+x-1"] - 0.965571) <= 1e-6
        assert abs(by_text3["x^3+x+1"] - 0.965571) <= 1e-6
        by_text4 = {p.to_text(): m for p, m in g4.entries}
        assert set(by_text4) == {"x^4+x^2-1", "x^4-x^3+x^2+x-1", "x^4+x^3+x^2-x-1"}
        assert abs(by_text4["x^4+x^2-1"] - 0.951367) <= 1e-6
        assert abs(by_text4["x^4-x^3+x^2+x-1"] - 0.979971) <= 1e-6
        assert abs(by_text4["x^4+x^3+x^2-x-1"] - 0.979971) <= 1e-6
        assert elapsed < 5.0
        parts.append(
            "degree 3-4 search: 4 + 3 polynomials, m values match published"
            f" digits to 1e-6, {elapsed:.2f}s < 5s"
        )


@pytest.mark.slow
def test_criterion_02_mid_degree_tables(search_report_5, search_report_6):
    parts = []
    with criterion("02", parts):
        g12 = _group(search_report_5, (1, 2))
        g31 = _group(search_report_5, (3, 1))
        assert g12.count == 22 and g31.count == 0
        min_m = g12.entries[0][1]
        assert abs(min_m - 0.961783) <= 1e-6
        minimal = {p.to_text() for p, m in g12.entries if abs(m - min_m) <= 1e-9}
        assert minimal == {"x^5-x^3-x^2+x+1", "x^5-x^3+x^2+x-1"}
        assert {p.to_text() for p, _ in g12.entries} == {t for t, _ in DEG5_TABLE}

        g22 = _group(search_report_6, (2, 2))
        g41 = _group(search_report_6, (4, 1))
        assert g41.count == 0
        assert g22.count == 38
        assert {p.to_text() for p, _ in g22.entries} == {t for t, _ in DEG6_TABLE}
        assert g22.entries[0][0].to_text() == "x^6+x^2-1"
        assert abs(g22.entries[0][1] - 0.946467) <= 1e-6
        runtime = search_report_5.wall_time + search_report_6.wall_time
        assert runtime < 900.0
        parts.append(
            "degree 5-6 search: (1,2) has 22 polynomials with min m 0.961783,"
            " (3,1) empty; (2,2) has 38 certified polynomials, one more than"
            " the published count of 37 (full set frozen in test_search),"
            f" min m 0.946467 at x^6+x^2-1, (4,1) empty; {runtime:.0f}s < 15min"
        )


def test_criterion_03_prune_soundness(search_report_3, search_report_4):
    parts = []
    with criterion("03", parts):
        for pruned in (search_report_3, search_report_4):
            raw = enumerate_m_lt_one(pruned.degree, prune=False)
            assert raw.pruned is False and pruned.pruned is True
            assert len(raw.groups) == len(pruned.groups)
            for ga, gb in zip(pruned.groups, raw.groups):
                assert ga.signature == gb.signature
                texts_a = [p.to_text() for p, _ in ga.entries]
                texts_b = [p.to_text() for p, _ in gb.entries]
                assert texts_a == texts_b
                for (_, ma), (_, mb) in zip(ga.entries, gb.entries):
                    assert abs(ma - mb) <= 1e-12
        parts.append(
            "prune soundness: pruned and raw-box searches agree"
            " polynomial-for-polynomial at degrees 3 and 4"
        )


@pytest.mark.slow
def test_criterion_04_svp_oracle(
    search_report_3, search_report_4, search_report_5, search_report_6
):
    parts = []
    with criterion("04", parts):
        polys = _table_polynomials(
            search_report_3, search_report_4, search_report_5, search_report_6
        )
        polys += [parse_polynomial(s) for s in ("x^2+1", "x^2-x-1", "x^3-2")]
        worst = 0.0
        sextic_d2 = None
        for p in polys:
            lat = build_embedding(find_roots(p))
            sv = shortest_vector(lat)
            s, t = lat.signature
            bf = brute_force_shortest(lat, s + t + 0.5)
            worst = max(worst, abs(sv.squared_length - bf.squared_length))
            if p.to_text() == "x^6+x^2-1":
                sextic_d2 = sv.squared_length
        assert worst <= 1e-9
        # the published 6-digit value 3.785869 sits 2.2e-6 from the exact
        # 4m = 3.7858712; hold the tight tolerance against 4m and a loosened
        # one against the printed digits
        assert sextic_d2 is not None
        assert abs(sextic_d2 - 4.0 * SEXTIC_MIN_M) <= 1e-6
        assert abs(sextic_d2 - 3.785869) <= 2.5e-6
        parts.append(
            "SVP oracle: enumeration matches brute force within 1e-9 on"
            f" {len(polys)} fields (worst gap {worst:.1e}); sextic d^2 ="
            f" {sextic_d2:.7f} = 4m (printed 3.785869 held at 2.5e-6,"
            " it disagrees with 4m in the 6th decimal)"
        )


@pytest.mark.slow
def test_criterion_05_determinant_identity(
    search_report_3, search_report_4, search_report_5, search_report_6
):
    parts = []
    with criterion("05", parts):
        polys = _table_polynomials(
            search_report_3, search_report_4, search_report_5, search_report_6
        )
        polys += [multinacci(n) for n in range(2, 13)]
        worst = 0.0
        for p in polys:
            lat = build_embedding(find_roots(p))
            t = lat.signature[1]
            disc = discriminant(p)
            assert disc != 0
            predicted = math.sqrt(abs(disc)) / 2.0**t
            worst = max(worst, abs(lat.determinant - predicted) / predicted)
        assert worst <= 1e-8
        cubic = parse_polynomial("x^3-x-1")
        assert discriminant(cubic) == -23
        det = build_embedding(find_roots(cubic)).determinant
        assert abs(det - math.sqrt(23.0) / 2.0) <= 1e-12
        assert abs(det - 2.397915) <= 1e-6
        parts.append(
            "determinant identity: |det| = 2^-t sqrt|disc| within rel 1e-8 on"
            f" {len(polys)} fields (worst {worst:.1e}); x^3-x-1 gives"
            " sqrt(23)/2 = 2.397916 with exact discriminant -23"
        )


@pytest.mark.slow
def test_criterion_06_universal_floors(
    search_report_3, search_report_4, search_report_5, search_report_6
):
    parts = []
    with criterion("06", parts):
        printed_bounds = {
            (1, 1): 0.944940,
            (2, 1): 0.942809,
            (1, 2): 0.957248,
            (2, 2): 0.944940,
        }
        assert abs(UNIVERSAL_M_FLOOR - 0.942084) <= 1e-6
        total = 0
        for report in (
            search_report_3,
            search_report_4,
            search_report_5,
            search_report_6,
        ):
            for group in report.groups:
                # the published bound trio only covers signatures that carry
                # entries; empty groups still must sit above the floor
                if group.count:
                    assert (
                        abs(group.lower_bound - printed_bounds[group.signature]) <= 1e-6
                    )
                assert 0.942084 < group.lower_bound < 1.0
                for _, m in group.entries:
                    assert m > 0.942084
                    assert m > group.lower_bound
                    total += 1
        assert total == 67
        parts.append(
            f"universal floors: all {total} enumerated m exceed 0.942084 and"
            " their signature bounds 0.944940 / 0.942809 / 0.957248"
        )


def test_criterion_07_constants():
    parts = []
    with criterion("07", parts):
        with mpmath.workdps(50):
            theta = mpmath.findroot(lambda x: x**3 - x - 1, mpmath.mpf("1.3"))
            zeta = mpmath.findroot(lambda x: x**6 + x**2 - 1, mpmath.mpf("0.8"))
            oracle = {
                "theta": theta,
                "size": theta + theta**-2,
                "zeta": zeta,
                "min_m": (zeta**2 + 1 / zeta) / 2,
                "argmin": 1 / mpmath.log(2) - 1,
                "ganelius": mpmath.sqrt(2 * mpmath.pi / mpmath.catalan),
            }
            exported = {
                "theta": PLASTIC_NUMBER,
                "size": INVERSE_PLASTIC_SQUARE_SIZE,
                "zeta": SEXTIC_UNIT_ROOT,
                "min_m": SEXTIC_MIN_M,
                "argmin": SIGNATURE_BOUND_ARGMIN,
                "ganelius": ERDOS_TURAN_GANELIUS,
            }
            printed = {
                "theta": 1.324717,
                "size": 1.894558,
                "zeta": 0.826031,
                "min_m": 0.946467,
                "argmin": 0.442695,
                "ganelius": 2.619089,
            }
            for name in oracle:
                assert abs(exported[name] - float(oracle[name])) <= 1e-12, name
                assert abs(exported[name] - printed[name]) <= 1e-6, name
        parts.append(
            "constants: 6 derived constants match 50-digit defining-equation"
            " oracles to 1e-12 and the published digits to 1e-6"
        )


def test_criterion_08_asymptotic_suites():
    parts = []
    with criterion("08", parts):
        t0 = time.time()
        records = []
        for q in (1.0, 2.0):
            for n in (50, 100, 200, 400, 800):
                records.append(check_sum_asymptotic(n, q))
        for n in (51, 101, 201, 401, 801):
            records.append(check_bhu1(n))
        for k in (12, 25, 50, 100, 199):
            records.append(check_kiy(k))
        for n in (5, 15, 45):
            records.append(check_root_extract(n))
        elapsed = time.time() - t0
        failures = [r for r in records if r.verdict != "pass"]
        assert not failures, failures
        assert elapsed < 120.0
        parts.append(
            "asymptotic suites: sum-of-moduli (q=1,2), squared-size and"
            " even-spread residuals stay under the frozen bounds through"
            " degree ~800, root-extract residual x n^2 bounded at degrees"
            f" 5/15/45; {len(records)} records, {elapsed:.0f}s < 120s"
        )


def test_criterion_09_structural_suite():
    parts = []
    with criterion("09", parts):
        for n in range(2, 201):
            assert multinacci_location_check(n).all_ok, n
            assert pisot_check(find_roots(multinacci(n))), n
        for k in range(1, 6):
            p = even_spread(4 * k + 2)
            assert sturm_real_count(p) == 2
            rec = check_kiy(k)
            assert rec.verdict == "pass"
            expected_flag = "certified" if p.degree <= 12 else "assumed"
            assert rec.parameters["irreducibility"] == expected_flag
            if p.degree <= 12:
                assert is_irreducible(p)
        assert abs(ERDOS_TURAN_DEFAULT - 2.619090) <= 1e-12
        suite = check_erdos_turan_suite()
        assert all(r.verdict == "pass" for r in suite)
        smyth = check_smyth(5)
        assert smyth.verdict == "pass"
        assert set(smyth.parameters["equality"]) == {"x^2+x-1", "x^2-x-1"}
        parts.append(
            "structural suite: multinacci location and pisot checks hold for"
            " 2 <= n <= 200, even-spread degrees 6-22 have two real roots"
            " (irreducibility exact through degree 12, flagged assumed above),"
            f" sector bounds hold at constant 2.619090 on all {len(suite)}"
            " family members, trace-floor equality only at x^2+x-1 and x^2-x-1"
        )


def test_criterion_10_subelement_boxes():
    parts = []
    with criterion("10", parts):
        def caps(degree, bound_sq):
            # largest integer strictly below C(degree,i) * bound_sq^(i/2)
            out = []
            for i in range(1, degree + 1):
                target = comb(degree, i) ** 2 * bound_sq**i
                root = isqrt(target)
                out.append(root - 1 if root * root == target else root)
            return out

        assert caps(3, 4) == [5, 11, 7]
        assert caps(3, 5) == [6, 14, 11]
        assert subelement_scan(3.0, 2, (2, 1)) == []
        assert subelement_scan(4.0, 3, (2, 1, 1)) == []
        assert subelement_scan(5.0, 3, (2, 2, 1)) == []
        parts.append(
            "subelement scans: the Newton-window walks of the quartic case and"
            " both cubic cases, inside the boxes (|a|<=5,|b|<=11,|c|<=7 and"
            " |a|<=6,|b|<=14,|c|<=11), hold no violators of the weighted"
            " square-sum floors"
        )
