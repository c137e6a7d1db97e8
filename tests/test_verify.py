"""Verification-suite tests.

Reference values were computed by independent oracles before the module was
written: high-precision mpmath root finding for the small closed cases, and
direct summation formulas for the growth checks.  Asymptotic records are
tested against the frozen regression bounds shipped in the module.
"""
import json
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minklat.intpoly import IntPolynomial
from minklat.roots import find_roots
from minklat.verify import (
    CLOSED_FORM_TOL,
    COMPOSITUM_BOUND,
    EVEN_SPREAD_M_BOUND,
    EVEN_SPREAD_NORM_BOUND,
    FULL_FAMILY_SUITE,
    ROOT_EXTRACT_BOUND,
    SQUARE_SIZE_BOUND,
    SUM_ASYMPTOTIC_BOUND,
    TRACE_REMAINDER_BOUND,
    check_bhu1,
    check_cubic,
    check_cubic2,
    check_erdos_turan_suite,
    check_kiy,
    check_kiy1,
    check_prod,
    check_root_extract,
    check_schur,
    check_smyth,
    check_sum_asymptotic,
    run_suite,
)

LOG2 = math.log(2.0)


# -- sum of root-power moduli -----------------------------------------------------


def test_sum_asymptotic_smallest_case_matches_high_precision():
    # x^3 + x^2 + x - 1 has one real root r and one conjugate pair; the root
    # product is 1, so the pair's squared modulus is exactly 1/r
    rec = check_sum_asymptotic(3, 2.0)
    mpmath.mp.dps = 50
    roots = mpmath.polyroots([1, 1, 1, -1])
    real = next(z for z in roots if abs(mpmath.im(z)) < mpmath.mpf("1e-40"))
    assert abs(rec.observed - float(1 / real)) < 1e-12
    assert rec.parameters["t"] == 1
    assert rec.predicted == pytest.approx(1 + LOG2, abs=1e-15)
    assert rec.verdict == "pass"


def test_sum_asymptotic_long_even_case():
    rec = check_sum_asymptotic(402, 1.0)
    assert rec.parameters["t"] == 200
    assert rec.predicted == pytest.approx(200 + LOG2 / 2, abs=1e-12)
    assert rec.verdict == "pass"


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize(
    "n", [50, 100, 200, 400, 800]
)
def test_sum_asymptotic_suite_within_frozen_bound(n, q):
    rec = check_sum_asymptotic(n, q)
    assert rec.verdict == "pass"
    assert rec.scaled_residual <= SUM_ASYMPTOTIC_BOUND * max(1.0, q)
    assert rec.residual == abs(rec.observed - rec.predicted)


@pytest.mark.parametrize("q", [0.5, 1.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [3, 7, 24])
def test_sum_asymptotic_other_exponents(n, q):
    assert check_sum_asymptotic(n, q).verdict == "pass"


def test_sum_asymptotic_validation():
    with pytest.raises(ValueError):
        check_sum_asymptotic(2, 2.0)
    with pytest.raises(ValueError):
        check_sum_asymptotic(10, 0.0)


# -- squared size of the truncated-geometric root ---------------------------------


def test_square_size_n5_frozen():
    rec = check_bhu1(5)
    assert rec.observed == pytest.approx(3.0683499524089752, abs=1e-9)
    assert rec.predicted == pytest.approx(3 - 0.75 + LOG2, abs=1e-15)
    assert rec.parameters["signature"] == [1, 2]
    assert rec.verdict == "pass"


def test_square_size_degenerate_golden_case():
    rec = check_bhu1(2)
    assert rec.parameters["degenerate"] is True
    assert rec.observed == pytest.approx(3.0, abs=1e-12)
    assert rec.verdict == "pass"


@pytest.mark.parametrize(
    "n", [51, 101, 201, 401, 801]
)
def test_square_size_suite_within_frozen_bounds(n):
    rec = check_bhu1(n)
    assert rec.verdict == "pass"
    assert rec.scaled_residual <= SQUARE_SIZE_BOUND
    assert rec.parameters["trace_scaled_residual"] <= TRACE_REMAINDER_BOUND


def test_square_size_validation():
    with pytest.raises(ValueError):
        check_bhu1(1)


# -- even-spread family ------------------------------------------------------------


def test_even_spread_k1_frozen():
    rec = check_kiy(1)
    assert rec.observed == pytest.approx(3.7997841566367425, abs=1e-9)
    assert rec.predicted == pytest.approx(3 + LOG2, abs=1e-15)
    assert rec.parameters["signature"] == [2, 2]
    assert rec.parameters["irreducibility"] == "certified"
    # same polynomial the degree-6 search reports: m agrees with its table row
    assert rec.parameters["m_observed"] == pytest.approx(0.949946039, abs=1e-9)
    assert rec.verdict == "pass"


@pytest.mark.parametrize("k", [2, 12, 25, 50, 100])
def test_even_spread_suite_within_frozen_bounds(k):
    rec = check_kiy(k)
    assert rec.verdict == "pass"
    assert rec.scaled_residual <= EVEN_SPREAD_NORM_BOUND
    assert rec.parameters["m_scaled_residual"] <= EVEN_SPREAD_M_BOUND
    expected = "certified" if 4 * k + 2 <= 12 else "assumed"
    assert rec.parameters["irreducibility"] == expected


def test_even_spread_validation():
    with pytest.raises(ValueError):
        check_kiy(0)


# -- compositum bound --------------------------------------------------------------


def test_compositum_s2_equals_base_profile():
    base = check_kiy(1)
    rec = check_kiy1(2, 1)
    assert rec.observed == pytest.approx(base.observed, abs=1e-12)
    assert rec.predicted == pytest.approx(3 + LOG2, abs=1e-12)
    assert rec.parameters["signature"] == [2, 2]
    assert rec.verdict == "pass"


def test_compositum_s4_doubles_base_profile():
    base = check_kiy(1)
    rec = check_kiy1(4, 1)
    assert rec.observed == pytest.approx(2 * base.observed, abs=1e-12)
    assert rec.parameters["n"] == 12
    assert rec.parameters["signature"] == [4, 4]
    assert rec.verdict == "pass"


@pytest.mark.parametrize("s,k", [(2, 2), (2, 5), (2, 12), (4, 3), (6, 2), (8, 2)])
def test_compositum_suite_within_frozen_bound(s, k):
    rec = check_kiy1(s, k)
    assert rec.verdict == "pass"
    assert rec.scaled_residual <= COMPOSITUM_BOUND
    n = (2 * k + 1) * s
    assert rec.parameters["signature"] == [s, (n - s) // 2]


def test_compositum_validation():
    with pytest.raises(ValueError):
        check_kiy1(3, 1)
    with pytest.raises(ValueError):
        check_kiy1(0, 1)
    with pytest.raises(ValueError):
        check_kiy1(2, 0)


# -- cubic floor and root powers ----------------------------------------------------


def test_cubic_unit_floor(search_report_3):
    rec = check_cubic(search_report_3)
    assert rec.verdict == "pass"
    assert rec.parameters["violators"] == []
    assert rec.parameters["equality"] == ["x^3+x^2-1", "x^3-x^2+1"]
    assert rec.observed == pytest.approx(rec.predicted, abs=1e-9)
    assert rec.parameters["norm2_cubic_square_size"] >= 3.0


def test_cubic_unit_floor_computes_own_report():
    rec = check_cubic()
    assert rec.verdict == "pass"


def test_root_power_n1_is_the_inverse_plastic_case():
    rec = check_cubic2(1)
    assert rec.observed == pytest.approx(0.947279124121, abs=1e-9)
    assert rec.predicted == pytest.approx(rec.observed, abs=CLOSED_FORM_TOL)
    assert rec.parameters["irreducibility"] == "certified"
    assert rec.parameters["signature"] == [1, 1]
    assert rec.verdict == "pass"


@pytest.mark.parametrize("n", list(range(1, 11)) + [20, 50])
def test_root_power_closed_form_agreement(n):
    rec = check_cubic2(n)
    assert rec.verdict == "pass"
    assert rec.parameters["closed_form_gap"] <= CLOSED_FORM_TOL
    assert rec.observed < 1.0 and rec.predicted < 1.0
    if n % 2:
        assert rec.parameters["signature"] == [1, (3 * n - 1) // 2]
    else:
        assert rec.parameters["signature"] == [2, (3 * n - 2) // 2]


def test_root_power_irreducibility_flag_changes_at_degree_12():
    assert check_cubic2(4).parameters["irreducibility"] == "certified"
    rec = check_cubic2(5)
    assert rec.parameters["irreducibility"] == "assumed"
    assert "assumed" in rec.detail


def test_root_power_validation():
    with pytest.raises(ValueError):
        check_cubic2(0)


# -- spread product and hyperfactorial ----------------------------------------------


def test_spread_product_two_point_equality():
    rec = check_schur([1.0, -1.0])
    assert rec.observed == pytest.approx(math.log(4), abs=1e-12)
    assert rec.predicted == pytest.approx(math.log(4), abs=1e-12)
    assert rec.verdict == "pass"


def test_spread_product_golden_conjugates():
    golden = sorted(find_roots(IntPolynomial((-1, -1, 1))).real_roots)
    rec = check_schur(golden)
    assert rec.observed == pytest.approx(math.log(5), abs=1e-9)
    assert rec.predicted == pytest.approx(math.log(6), abs=1e-9)
    assert rec.verdict == "pass"


def test_spread_product_repeated_point_is_trivially_inside():
    rec = check_schur([1.0, 1.0, 2.0])
    assert rec.observed == -math.inf
    assert rec.verdict == "pass"
    # non-finite floats must flatten to strings for the JSON surface
    payload = json.loads(json.dumps(rec.to_json_dict()))
    assert payload["observed"] == "-inf"


def test_spread_product_extreme_scales():
    # unless the check rescales, a*a and the squared gaps underflow at 1e-160
    # and the squared gap overflows at 1e200
    for a in (1e-160, 1e200):
        rec = check_schur([a, -a])
        expected = math.log(4) + 2 * math.log(a)
        assert rec.observed == pytest.approx(expected, abs=1e-9)
        assert rec.predicted == pytest.approx(expected, abs=1e-9)
        assert rec.verdict == "pass"
    rec = check_schur([1e-200, 2e-200])
    assert math.isfinite(rec.observed)
    assert rec.verdict == "pass"
    # a squared gap still underflows after rescaling; distinct points stay finite
    rec = check_schur([1.5, 1e-300, 2e-300])
    assert math.isfinite(rec.observed)
    assert rec.verdict == "pass"


def test_spread_product_validation():
    with pytest.raises(ValueError):
        check_schur([1.0])
    with pytest.raises(ValueError):
        check_schur([0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2,
        max_size=8,
    ).filter(lambda xs: any(x != 0 for x in xs))
)
# squares of these subnormals underflow to 0.0
@example(xs=[0.0, 5e-324])
@example(xs=[0.0, 2.225073858507203e-309])
def test_spread_product_holds_for_arbitrary_points(xs):
    assert check_schur(xs).verdict == "pass"


def test_hyperfactorial_endpoints_frozen():
    assert check_prod(2).residual == pytest.approx(0.24909055439339256, abs=1e-12)
    assert check_prod(500).residual == pytest.approx(0.24875448259990662, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=500))
def test_hyperfactorial_inside_window_everywhere(s):
    rec = check_prod(s)
    assert rec.verdict == "pass"
    lo, hi = rec.parameters["window"]
    assert lo <= rec.residual <= hi


def test_hyperfactorial_validation():
    with pytest.raises(ValueError):
        check_prod(1)


# -- sector counts, trace form, root extraction -------------------------------------


def test_sector_count_sample():
    recs = check_erdos_turan_suite((10, 50, 100))
    assert [r.parameters["n"] for r in recs] == [10, 50, 100]
    assert all(r.verdict == "pass" for r in recs)
    assert all(r.observed < 0 for r in recs)
    assert recs[0].parameters["sectors"] == 2
    assert recs[2].parameters["k"] == 3


def test_sector_count_full_family_suite():
    recs = check_erdos_turan_suite()
    assert len(recs) == len(FULL_FAMILY_SUITE)
    assert all(r.verdict == "pass" for r in recs)


def test_trace_form_floor_full_scan():
    rec = check_smyth(5)
    assert rec.verdict == "pass"
    assert rec.parameters["violators"] == []
    assert rec.parameters["equality"] == ["x^2+x-1", "x^2-x-1"]
    assert rec.parameters["scanned"] == 13244


def test_trace_form_floor_small_scan():
    rec = check_smyth(3)
    assert rec.verdict == "pass"
    assert rec.parameters["scanned"] == 10


def test_trace_form_validation():
    with pytest.raises(ValueError):
        check_smyth(1)
    with pytest.raises(ValueError):
        check_smyth(6)


def test_root_extract_frozen_values():
    rec = check_root_extract(5)
    assert rec.observed == pytest.approx(1.096824979694626, abs=1e-9)
    assert rec.predicted == pytest.approx(1 + LOG2 / 8, abs=1e-12)
    assert rec.parameters["signature"] == [1, 7]
    assert rec.verdict == "pass"


@pytest.mark.parametrize("n", [1, 15, 45])
def test_root_extract_suite_within_frozen_bound(n):
    rec = check_root_extract(n)
    assert rec.verdict == "pass"
    assert rec.scaled_residual <= ROOT_EXTRACT_BOUND


def test_root_extract_validation():
    with pytest.raises(ValueError):
        check_root_extract(4)


# -- suite runner -------------------------------------------------------------------


def test_fast_suite_all_pass_and_ordered():
    recs = run_suite("fast")
    assert len(recs) == 23
    assert all(r.verdict == "pass" for r in recs)
    keys = [
        (r.check_id, json.dumps(r.parameters, sort_keys=True, default=str))
        for r in recs
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_suite_name_validation():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_record_json_shape():
    rec = check_prod(10)
    payload = rec.to_json_dict()
    assert set(payload) == {
        "check_id",
        "parameters",
        "observed",
        "predicted",
        "residual",
        "scaled_residual",
        "verdict",
        "detail",
    }
    json.dumps(payload)
