"""Root finding, sector counts, discrepancy bound, Pisot verdicts."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minklat.intpoly import (
    IntPolynomial,
    _horner_with_derivative,
    even_spread,
    is_irreducible,
    multinacci,
    multinacci_cofactor,
    parse_polynomial,
    root_power,
    sturm_real_count,
    truncated_geom,
)
from minklat import roots
from minklat.constants import ERDOS_TURAN_CLASSICAL, ERDOS_TURAN_DEFAULT
from minklat.roots import (
    ConjugateSet,
    InconclusiveError,
    RootFindingError,
    SignatureError,
    erdos_turan_check,
    find_roots,
    multinacci_location_check,
    pisot_check,
    sector_count,
    _aberth,
    _aberth_roots,
)
from minklat.verify import check_erdos_turan_suite


def P(text):
    return parse_polynomial(text)


# -- find_roots -----------------------------------------------------------------

def test_cubic_with_one_real_root():
    cs = find_roots(P("x^3-x-1"))
    assert cs.signature == (1, 1)
    assert abs(cs.real_roots[0] - 1.324717957244746) < 1e-13
    assert len(cs.complex_reps) == 1
    assert cs.complex_reps[0].imag > 0


def test_sextic_two_real_two_pairs():
    cs = find_roots(P("x^6+x^2-1"))
    assert cs.signature == (2, 2)
    assert abs(cs.real_roots[1] - 0.826031357654187) < 1e-13
    assert abs(cs.real_roots[0] + cs.real_roots[1]) < 1e-13  # even polynomial


def test_gaussian_unit():
    cs = find_roots(P("x^2+1"))
    assert cs.signature == (0, 1)
    assert abs(cs.complex_reps[0] - 1j) < 1e-14


def test_find_roots_rejects_bad_input():
    with pytest.raises(ValueError, match="monic"):
        find_roots(P("2x^2+1"))
    with pytest.raises(ValueError):
        find_roots(P("7"))
    with pytest.raises(ValueError, match="squarefree"):
        find_roots(P("x^2-2x+1"))


def test_residual_bound_for_family_members():
    # find_roots enforces the residual certificate on every root before it
    # returns: |f(z)| <= 1e-10 * (1+|z|)^n * l1-norm
    for p in (multinacci(400), truncated_geom(150), even_spread(102), root_power(50)):
        cs = find_roots(p)
        assert cs.s + 2 * cs.t == p.degree


monic_poly = st.lists(
    st.integers(-4, 4), min_size=2, max_size=6
).map(lambda tail: IntPolynomial(tail + [1]))


@given(monic_poly)
@settings(max_examples=120, deadline=None)
def test_signature_matches_sturm_for_irreducibles(p):
    if p.degree < 1 or not is_irreducible(p):
        return
    cs = find_roots(p)
    assert cs.s == sturm_real_count(p)
    assert cs.s + 2 * cs.t == p.degree
    for z in cs.complex_reps:
        assert z.imag > 0


def _shifted_factorial(n, e):
    # (x-1)(x-2)...(x-n) + e
    p = IntPolynomial((1,))
    for k in range(1, n + 1):
        p = p * IntPolynomial((-k, 1))
    return p + IntPolynomial((e,))


@pytest.mark.parametrize("e", [1, -1])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_stalled_aberth_keeps_backward_stable_roots(n, e):
    # Aberth converges here within a dozen steps, then its relative step
    # stalls near 5e-14, above the 1e-14 stop, until the iterations run out
    p = _shifted_factorial(n, e)
    assert is_irreducible(p)
    cs = find_roots(p)
    assert cs.signature == (sturm_real_count(p), 0) == (n, 0)


def test_aberth_still_raises_without_backward_stable_roots(monkeypatch):
    monkeypatch.setattr(roots, "MAX_ABERTH_ITERATIONS", 2)
    with pytest.raises(RootFindingError):
        _aberth(_shifted_factorial(6, -1).coefficients)


def _always_add_horner(coeffs, x):
    # _horner_with_derivative without its zero-coefficient skip
    p = dp = 0
    for c in reversed(coeffs):
        dp *= x
        dp += p
        p *= x
        p += c
    return p, dp


SPARSE_ABERTH = {
    "cofactor10": multinacci_cofactor(10),
    "cofactor100": multinacci_cofactor(100),
    "root_power4": root_power(4),
    "even_spread22": even_spread(22),
    "totally_real": P("x^4-10x^2+1"),
    "purely_imaginary": P("x^4+3x^2+1"),
    "stalled": _shifted_factorial(6, 1),
}


@pytest.mark.parametrize("p", SPARSE_ABERTH.values(), ids=SPARSE_ABERTH.keys())
def test_aberth_bytes_do_not_depend_on_adding_zero_coefficients(p, monkeypatch):
    # the skipped + 0.0 can change only the sign of a zero, which no
    # iterate reads: every root comes out bit for bit as with the adds
    got = _aberth(p.coefficients).tobytes()
    monkeypatch.setattr(roots, "_horner_with_derivative", _always_add_horner)
    assert got == _aberth(p.coefficients).tobytes()


@pytest.mark.parametrize(
    "p", [P("x^3-x-1"), multinacci(8), P("x^6+x^2-1")], ids=IntPolynomial.to_text
)
def test_aberth_zeroes_a_non_finite_step(p, monkeypatch):
    # a zero derivative at one start point makes its Newton step non-finite;
    # the guard zeroes that step, and the run still finds the same roots
    expected = _aberth(p.coefficients)
    first = [True]

    def zero_one_derivative(coeffs, x):
        value, derivative = _horner_with_derivative(coeffs, x)
        if first:
            first.clear()
            derivative[0] = 0
        return value, derivative

    monkeypatch.setattr(roots, "_horner_with_derivative", zero_one_derivative)
    got = _aberth(p.coefficients)
    assert not first
    for a, b in ((got, expected), (expected, got)):
        assert max(np.min(np.abs(b - z)) for z in a) <= 1e-14


# -- accuracy above degree 100 ------------------------------------------------------

HIGH_DEGREE = {
    "truncated_geom120": truncated_geom(120),
    "even_spread102": even_spread(102),
    "root_power40": root_power(40),
    "multinacci150": multinacci(150),
}


@pytest.mark.parametrize("p", HIGH_DEGREE.values(), ids=HIGH_DEGREE.keys())
def test_high_degree_roots_lie_near_a_root(p):
    # one 30-digit Newton step from each root gives its distance to the
    # root; the worst measured is 5.4e-17·(1+|z|), about 16 times below 2^-50.
    # A conjugate lies as far from its root, so one of each pair is checked.
    cs = find_roots(p)
    assert cs.s == sturm_real_count(p)
    coeffs = [mpmath.mpf(c) for c in p.coefficients]
    with mpmath.workdps(30):
        for z in cs.real_roots + cs.complex_reps:
            f, df = _horner_with_derivative(coeffs, mpmath.mpc(z))
            assert abs(f / df) <= 2.0**-50 * (1 + abs(z))


# -- sector_count -----------------------------------------------------------------

def test_sector_counts_known():
    assert sector_count(find_roots(P("x^4+1")), 0.0, math.pi) == 2
    assert sector_count([1 + 0j, -1 + 0j], 0.0, math.pi) == 1  # arg 0 in, arg pi out
    roots = list(_aberth_roots(multinacci_cofactor(10).coefficients))
    assert sector_count(roots, 0.0, 2 * math.pi) == 11


def test_sector_interval_validation():
    cs = find_roots(P("x^2+1"))
    with pytest.raises(ValueError):
        sector_count(cs, 1.0, 1.0)
    with pytest.raises(ValueError):
        sector_count(cs, -0.1, 1.0)
    with pytest.raises(ValueError):
        sector_count(cs, 0.0, 7.0)


def test_sector_partition_sums_to_degree():
    for p in (P("x^5-x-1"), multinacci(9), truncated_geom(12)):
        cs = find_roots(p)
        k = 8
        total = sum(
            sector_count(cs, 2 * math.pi * j / k, 2 * math.pi * (j + 1) / k)
            for j in range(k)
        )
        assert total == p.degree


# -- erdos_turan_check ---------------------------------------------------------------

def test_discrepancy_bound_roots_of_unity():
    r = erdos_turan_check(P("x^4+1"), 0.0, math.pi, constant=16.0)
    assert r.lhs == 0.0
    assert r.holds

    coeffs = [-1] + [0] * 63 + [1]
    r64 = erdos_turan_check(IntPolynomial(coeffs), 0.0, math.pi)
    assert r64.lhs <= 1.0 <= r64.rhs
    assert r64.holds


def test_discrepancy_bound_cofactor_family():
    # dyadic sectors from the asymptotic-sum argument: k = floor(n^(1/4))
    for n in (10, 100, 400):
        p = multinacci_cofactor(n)
        k = int((n + 0.0) ** 0.25)
        fresh = _aberth(p.coefficients)
        for j in range(2 * k):
            phi, psi = math.pi * j / k, math.pi * (j + 1) / k
            r = erdos_turan_check(p, phi, psi)
            assert r.holds, (n, j)
            # the cached root set counts as a fresh Aberth run does
            assert r.sector_roots == sector_count(fresh, phi, psi)
            loose = erdos_turan_check(p, phi, psi, constant=16.0)
            assert loose.sector_roots == r.sector_roots


def test_aberth_runs_once_per_polynomial(monkeypatch):
    # a spy on roots._aberth, from a cold root-set cache
    calls = []
    reference_aberth = roots._aberth

    def spy(cs):
        calls.append(tuple(cs))
        return reference_aberth(cs)

    monkeypatch.setattr(roots, "_aberth", spy)
    roots._aberth_roots.cache_clear()
    p = multinacci_cofactor(400)
    k = 4  # floor(400^(1/4))
    for j in range(2 * k):
        phi, psi = math.pi * j / k, math.pi * (j + 1) / k
        for constant in (ERDOS_TURAN_CLASSICAL, ERDOS_TURAN_DEFAULT):
            assert erdos_turan_check(p, phi, psi, constant).holds
    assert calls == [p.coefficients]

    calls.clear()
    roots._aberth_roots.cache_clear()
    check_erdos_turan_suite([100, 200])
    assert calls == [multinacci_cofactor(n).coefficients for n in (100, 200)]


def test_cached_root_set_is_read_only_and_aberth_fresh():
    p = multinacci_cofactor(10)
    with pytest.raises(ValueError):
        _aberth_roots(p.coefficients)[0] = 0
    first, second = _aberth(p.coefficients), _aberth(p.coefficients)
    assert not np.shares_memory(first, second)
    first[0] = 0
    assert _aberth(p.coefficients).tobytes() == second.tobytes()


def test_discrepancy_default_constant_is_sharper_than_16():
    p = multinacci_cofactor(50)
    loose = erdos_turan_check(p, 0.0, math.pi / 2, constant=16.0)
    tight = erdos_turan_check(p, 0.0, math.pi / 2)
    assert tight.rhs < loose.rhs
    assert tight.holds


def test_discrepancy_rejects_zero_end_coefficients():
    with pytest.raises(ValueError):
        erdos_turan_check(P("x^2+x"), 0.0, 1.0)


# -- pisot_check -----------------------------------------------------------------------

def test_pisot_verdicts():
    assert pisot_check(find_roots(P("x^2-x-1"))) is True
    assert pisot_check(find_roots(multinacci(5))) is True
    assert pisot_check(find_roots(P("x^2-2"))) is False  # both roots outside
    assert pisot_check(find_roots(P("x^2-3x+1"))) is True
    assert pisot_check(find_roots(P("x^3-x-1"))) is True  # smallest Pisot
    assert pisot_check(find_roots(P("x^2+x+2"))) is False  # no real root


def test_pisot_refuses_unit_modulus():
    # Salem polynomial: two conjugates exactly on the unit circle
    with pytest.raises(InconclusiveError, match="inconclusive at tolerance"):
        pisot_check(find_roots(P("x^4-x^3-x^2-x+1")))
    with pytest.raises(InconclusiveError):
        pisot_check(find_roots(P("x^2+1")))


def test_pisot_multinacci_sample():
    for n in (2, 3, 7, 20, 60):
        assert pisot_check(find_roots(multinacci(n))) is True


# -- multinacci_location_check ------------------------------------------------------------

def test_location_quadratic_case():
    rec = multinacci_location_check(2)
    assert rec.all_ok
    # second real root -0.618... inside (-1, -3^(-1/2) = -0.577...)
    cs = find_roots(multinacci(2))
    second = cs.real_roots[0]
    assert -1.0 < second < -(3.0 ** -0.5)


def test_location_odd_has_single_real_root():
    rec = multinacci_location_check(3)
    assert rec.all_ok
    assert find_roots(multinacci(3)).s == 1


def test_location_large_even_and_odd():
    assert multinacci_location_check(100).all_ok
    assert multinacci_location_check(51).all_ok


def test_location_dominant_window_via_exact_counts():
    # at this degree the dominant root is within one ulp of 2; only the
    # exact path can certify the strict upper bound
    rec = multinacci_location_check(120)
    assert rec.dominant_in_window


def test_location_rejects_small_n():
    with pytest.raises(ValueError):
        multinacci_location_check(1)
