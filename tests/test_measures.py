"""Size measures, extension formulas, and the closed-form lower bounds."""
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from minklat.cli import main
from minklat.constants import SIGNATURE_BOUND_ARGMIN, UNIVERSAL_M_FLOOR
from minklat.intpoly import IntPolynomial, is_irreducible, multinacci, parse_polynomial
from minklat.measures import (
    ExtensionSignature,
    LINEAR_DISJOINTNESS_CAVEAT,
    compositum_signature,
    m_lower_bound_signature,
    mk_lt_one_criterion,
    norm_lower_bound,
    relative_m,
    relative_square_size,
    root_extract_profile,
    size_profile,
    unit_necessity_gate,
)
from minklat.roots import InconclusiveError, find_roots


def P(text):
    return parse_polynomial(text)


def profile_of(text):
    return size_profile(find_roots(P(text)))


# -- size_profile ------------------------------------------------------------

def test_profile_cubic_one_complex_pair():
    prof = profile_of("x^3+x-1")
    assert prof.signature == (1, 1)
    assert abs(prof.R - 0.465571231876768) < 1e-13
    assert abs(prof.C - 1.465571231876768) < 1e-13
    assert abs(prof.m - 0.965571231876768) < 1e-13
    assert prof.norm_abs == 1


def test_profile_sextic_minimum():
    prof = profile_of("x^6+x^2-1")
    assert prof.signature == (2, 2)
    assert abs(prof.m - 0.946467799117053) < 1e-12


def test_profile_rational_unit():
    prof = profile_of("x-1")
    assert prof.signature == (1, 0)
    assert prof.R == 1.0 and prof.C == 0.0 and prof.m == 1.0
    assert prof.norm_abs == 1


def test_profile_pair_counted_once():
    prof = profile_of("x^2+1")
    assert prof.signature == (0, 1)
    assert prof.C == pytest.approx(1.0, abs=1e-14)
    assert prof.abs_square_size == pytest.approx(1.0, abs=1e-14)


def test_profile_mahler_and_norm():
    prof = profile_of("x^2-x-1")
    golden = (1 + math.sqrt(5)) / 2
    assert prof.mahler == pytest.approx(golden, rel=1e-13)
    assert prof.norm_abs == 1
    prof2 = profile_of("x^3-2")
    assert prof2.norm_abs == 2
    assert prof2.mahler == pytest.approx(2.0, rel=1e-13)  # all three roots outside


# -- extension formulas ---------------------------------------------------------

def test_compositum_signature_cases():
    assert compositum_signature((1, 1), ExtensionSignature(2, 0)) == (2, 2)
    assert compositum_signature((2, 2), ExtensionSignature(3, 0)) == (6, 6)
    assert compositum_signature((3, 1), ExtensionSignature(1, 0)) == (3, 1)
    assert compositum_signature((1, 0), ExtensionSignature(0, 1)) == (0, 1)


def test_relative_square_size_real_extension():
    # reciprocal of the smallest Pisot number: theta^-1 root of x^3+x^2-1
    prof = profile_of("x^3+x^2-1")
    for s2 in (1, 2, 5):
        got = relative_square_size(prof, ExtensionSignature(s2, 0))
        assert got == pytest.approx(s2 * 1.8945582482427993, rel=1e-12)


def test_relative_square_size_trivial_extension():
    prof = profile_of("x^5-x^3-x^2+x+1")
    got = relative_square_size(prof, ExtensionSignature(1, 0))
    assert got == pytest.approx(prof.abs_square_size, rel=1e-15)


def test_relative_m_known_values():
    assert relative_m(profile_of("x^3+x^2-1"), ExtensionSignature(2, 0)) == pytest.approx(
        0.9472791241213997, abs=1e-12
    )
    assert relative_m(profile_of("x^6+x^2-1"), ExtensionSignature(2, 0)) == pytest.approx(
        0.9464677991170527, abs=1e-12
    )


@given(st.integers(1, 8))
def test_relative_m_real_extension_fixes_m(s2):
    prof = profile_of("x^3+x-1")
    assert relative_m(prof, ExtensionSignature(s2, 0)) == pytest.approx(prof.m, rel=1e-14)


def test_documented_disjointness_failure_mode():
    # sqrt(2) inside the quartic field of 2^(1/4): true squared size is 6,
    # the formula gives 8 because the hypothesis fails; the caveat string is
    # the contract here
    prof = profile_of("x^2-2")
    assert relative_square_size(prof, ExtensionSignature(2, 0)) == pytest.approx(8.0)
    assert "caller" in LINEAR_DISJOINTNESS_CAVEAT


# -- mk_lt_one criterion -----------------------------------------------------------

def test_criterion_cubic():
    prof = profile_of("x^3+x-1")
    assert mk_lt_one_criterion(prof, ExtensionSignature(2, 0)) is True
    assert mk_lt_one_criterion(prof, ExtensionSignature(1, 1)) is False


def test_criterion_totally_real_extension_always_passes():
    prof = profile_of("x^6+x^2-1")
    for s2 in (1, 2, 7):
        assert mk_lt_one_criterion(prof, ExtensionSignature(s2, 0)) is True


def test_criterion_rejects_m_at_least_one():
    with pytest.raises(ValueError, match="hypothesis violated"):
        mk_lt_one_criterion(profile_of("x^3-x-1"), ExtensionSignature(2, 0))


def test_criterion_rejects_degenerate_denominator():
    # C <= t1 cannot arise from a genuine profile with m < 1 (the theorem's
    # proof rules it out), so build one by hand to pin the error path
    from minklat.measures import SizeProfile

    fake = SizeProfile(
        polynomial=P("x^3+x-1"),
        signature=(1, 1),
        R=0.4,
        C=0.9,
        abs_square_size=1.3,
        m=0.65,
        norm_abs=1,
        mahler=1.1,
    )
    with pytest.raises(ValueError, match="inconsistent profile"):
        mk_lt_one_criterion(fake, ExtensionSignature(2, 0))


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=200)
def test_criterion_agrees_with_relative_m(s2, t2):
    if s2 + 2 * t2 < 1:
        return
    prof = profile_of("x^5-x^3-x^2+x+1")
    ext = ExtensionSignature(s2, t2)
    try:
        verdict = mk_lt_one_criterion(prof, ext)
    except InconclusiveError:
        return
    assert verdict == (relative_m(prof, ext) < 1.0)


# -- norm and signature bounds --------------------------------------------------------

def test_norm_lower_bound_values():
    assert norm_lower_bound(3, 1, 1) == pytest.approx(1.8898815748423097, rel=1e-14)
    assert norm_lower_bound(6, 2, 2) == pytest.approx(4.762203155904598, rel=1e-14)
    for n in (1, 2, 5, 9):
        assert norm_lower_bound(n, n, 1) == pytest.approx(float(n), rel=1e-14)


def test_norm_lower_bound_validation():
    with pytest.raises(ValueError):
        norm_lower_bound(3, 2, 1)  # parity mismatch
    with pytest.raises(ValueError):
        norm_lower_bound(3, 5, 1)
    with pytest.raises(ValueError):
        norm_lower_bound(3, 1, 0)


def test_norm_bound_consistent_with_smallest_pisot_size():
    prof = profile_of("x^3+x^2-1")
    assert norm_lower_bound(3, 1, 1) <= prof.abs_square_size
    assert prof.abs_square_size == pytest.approx(1.8945582482427993, rel=1e-12)


def test_signature_bound_values():
    assert m_lower_bound_signature(2, 1) == pytest.approx(0.9428090415820635, rel=1e-13)
    assert m_lower_bound_signature(1, 1) == pytest.approx(3 * 2 ** (-5 / 3), rel=1e-13)
    assert m_lower_bound_signature(1, 2) == pytest.approx(0.9572486291641958, rel=1e-13)
    assert m_lower_bound_signature(2, 2) == pytest.approx(3 * 2 ** (-5 / 3), rel=1e-13)


def test_signature_bound_closed_form():
    for s, t in ((1, 1), (2, 1), (0, 3), (4, 0), (3, 5)):
        n = s + 2 * t
        expected = 2.0 ** (s / n) / (1.0 + s / n)
        assert m_lower_bound_signature(s, t) == pytest.approx(expected, rel=1e-13)


def test_signature_bound_floor_and_minimizer():
    floor = UNIVERSAL_M_FLOOR
    assert floor == pytest.approx(math.e * math.log(2) / 2, rel=1e-15)
    for s in range(0, 51):
        for t in range(0, 51):
            if s + t < 1:
                continue
            assert m_lower_bound_signature(s, t) > floor
    # the bound, as a function of y = s/n, dips at y0 = 1/log2 - 1
    g = lambda y: 2.0 ** y / (1.0 + y)
    y0 = SIGNATURE_BOUND_ARGMIN
    assert y0 == pytest.approx(0.4426950408889634, rel=1e-14)
    for k in range(0, 1001):
        y = k / 1000.0
        assert g(y0) <= g(y) + 1e-15


def test_unit_gate_boundary():
    assert unit_necessity_gate(23, 2) is True
    assert unit_necessity_gate(24, 2) is False
    assert unit_necessity_gate(6, 2) is True
    assert unit_necessity_gate(10, 1) is False  # units themselves stay in play
    for n in range(1, 24):
        assert unit_necessity_gate(n, 2) is True


# -- root extraction --------------------------------------------------------------------

def test_root_extract_identity():
    base = find_roots(P("x^3-2"))
    assert root_extract_profile(base, 1) == size_profile(base)


def test_root_extract_signature_and_norm():
    base = find_roots(P("x^3-2"))
    ep = root_extract_profile(base, 5)
    assert ep.signature == (1, 7)  # (s1, (n-1)s1/2 + n t1)
    assert ep.degree == 15
    assert ep.norm_abs == 2
    assert ep.polynomial == P("x^15-2")
    assert ep.mahler == pytest.approx(2.0, rel=1e-12)


def test_root_extract_rejects_even():
    base = find_roots(P("x^3-2"))
    with pytest.raises(ValueError):
        root_extract_profile(base, 2)


def test_root_extract_asymptotic_residual_bounded():
    # m = 1 + log|Nm|/(s+t) + O(n^-2): the scaled residual stays bounded
    base = find_roots(P("x^3-2"))
    for n in (5, 15, 45):
        ep = root_extract_profile(base, n)
        resid = (ep.m - 1.0 - math.log(2) / (ep.s + ep.t)) * n * n
        assert abs(resid) < 0.5, (n, resid)


def test_root_extract_smallest_pisot_reciprocal_stays_below_one():
    # cube root of the inverse smallest Pisot number keeps m below 1
    base = find_roots(P("x^3+x^2-1"))
    ep = root_extract_profile(base, 3)
    assert ep.m < 1.0
    assert ep.signature == (1, 4)


# -- profile invariants ------------------------------------------------------------------

monic_poly = st.lists(
    st.integers(-4, 4), min_size=2, max_size=7
).map(lambda tail: IntPolynomial(tail + [1]))


@given(monic_poly)
@settings(max_examples=150, deadline=None)
def test_profile_bounds_hold_for_irreducibles(p):
    if p.degree < 1 or not is_irreducible(p):
        return
    prof = size_profile(find_roots(p))
    assert prof.m > UNIVERSAL_M_FLOOR
    assert prof.m >= m_lower_bound_signature(prof.s, prof.t) - 1e-9
    assert prof.abs_square_size >= norm_lower_bound(
        prof.degree, prof.s, prof.norm_abs
    ) - 1e-9
    assert prof.abs_square_size == pytest.approx(prof.R + prof.C, rel=1e-15)
    assert prof.m * (prof.s + prof.t) == pytest.approx(prof.abs_square_size, rel=1e-15)


def test_reciprocal_integers_have_m_at_least_one_known():
    # cyclotomic and Salem minimal polynomials are reciprocal; m >= 1 for all
    for text in (
        "x^2+x+1",
        "x^2-x+1",
        "x^4+x^3+x^2+x+1",
        "x^4-x^2+1",
        "x^4+1",
        "x^4-x^3-x^2-x+1",
        "x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1",
    ):
        p = P(text)
        assert p.reciprocal() == p
        prof = size_profile(find_roots(p))
        assert prof.m >= 1.0 - 1e-12, text


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=2), st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_reciprocal_integers_have_m_at_least_one(half, mid):
    # even-degree palindrome: 1, half..., mid, ...reversed half, 1
    coeffs = [1] + half + [mid] + list(reversed(half)) + [1]
    p = IntPolynomial(coeffs)
    if p.reciprocal() != p or not is_irreducible(p):
        return
    prof = size_profile(find_roots(p))
    assert prof.m >= 1.0 - 1e-9


def test_multinacci_profiles_m_above_one():
    for n in (2, 3, 5, 9):
        prof = size_profile(find_roots(multinacci(n)))
        assert prof.m > 1.0  # Pisot numbers are far from reciprocal


def test_profile_json_and_csv_shape():
    # The profile's JSON and CSV forms are written by the CLI's analyze command.
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", "x^6+x^2-1", "--format", "json"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["s"] == 2 and d["t"] == 2
    assert d["norm_abs"] == 1
    result = runner.invoke(main, ["analyze", "x^6+x^2-1", "--format", "csv"])
    assert result.exit_code == 0
    row = result.output.splitlines()[1]
    parts = row.split(",")
    assert parts[0] == "x^6+x^2-1"
    assert parts[1] == "2" and parts[2] == "2"
    assert parts[3] == "0.946467799"
    assert parts[4] == "0.944940787"
