"""Root finding, sector counts, discrepancy bound, Pisot verdicts."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minklat.intpoly import (
    IntPolynomial,
    _horner,
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
    _compensated_horner,
    _fast_polish,
    _locate_roots,
    _newton_radius,
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
    # residual certificate: max |f(z)| <= 1e-10 * (1+|z|)^n * l1-norm
    for p in (multinacci(400), truncated_geom(150), even_spread(102), root_power(50)):
        cs = find_roots(p)
        n = p.degree
        l1 = sum(abs(c) for c in p.coefficients)
        worst = max(cs.all_roots(), key=abs)
        assert cs.max_residual <= 1e-10 * (1.0 + abs(worst)) ** n * l1
        assert cs.s + 2 * cs.t == n


def test_conjugate_set_json_shape():
    d = find_roots(P("x^3-x-1")).to_json_dict()
    assert d["polynomial"] == [-1, -1, 0, 1]
    assert d["s"] == 1 and d["t"] == 1
    assert len(d["complex_representatives"]) == 1
    assert isinstance(d["real_roots"][0], float)


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


# -- polish ---------------------------------------------------------------------------

POLISHED = {
    "truncated_geom120": truncated_geom(120),
    "even_spread102": even_spread(102),  # moved 1-2 ulp without the polish
    "root_power40": root_power(40),
    "multinacci150": multinacci(150),
    "multinacci_cofactor400": multinacci_cofactor(400),
}


def _exact(x):
    # a double as an mpmath number, without rounding
    num, den = x.as_integer_ratio()
    return mpmath.mpf(num) / den


def _record_polish_calls(monkeypatch):
    # route roots._polish through a spy; returns the root arrays it is given
    sent = [np.empty(0, dtype=complex)]
    reference_polish = roots._polish

    def spy(cs, zs):
        sent.append(np.array(zs))
        return reference_polish(cs, zs)

    monkeypatch.setattr(roots, "_polish", spy)
    return sent


@pytest.mark.parametrize("p", POLISHED.values(), ids=POLISHED.keys())
def test_fast_polish_is_byte_equal_to_mpmath_polish(p, monkeypatch):
    coeffs = p.coefficients
    start = _aberth(coeffs)
    reference = roots._polish(coeffs, start)
    calls = _record_polish_calls(monkeypatch)
    assert _fast_polish(coeffs, start).tobytes() == reference.tobytes()
    sent = np.concatenate(calls)
    # mpmath leaves a real root an imaginary part of noise, which float64
    # cannot round the same way: every real root must take the fallback
    real = np.abs(reference.imag) < 1e-30
    assert real.sum() == sturm_real_count(p)
    assert np.isin(start[real], sent).all()
    # the fast path decides all but a few complex roots
    assert sent.size <= real.sum() + p.degree // 20


@pytest.mark.parametrize(
    "coeffs, overflow",
    [
        # a coefficient at the guard
        ((-1, 2**53) + (0,) * 99 + (1,), False),
        # every coefficient below 2^53, but n·max|c| above it: 101·2^47
        ((-1, 2**47) + (0,) * 99 + (1,), False),
        # one start where f overflows float64; only that root is guarded
        (truncated_geom(120).coefficients, True),
    ],
    ids=["coefficient_2^53", "degree_times_coefficient_2^53", "horner_overflow"],
)
def test_guards_send_every_root_to_mpmath(coeffs, overflow, monkeypatch):
    start = _aberth(coeffs)
    if overflow:
        start[0] = 1e4 + 1e4j
    reference = roots._polish(coeffs, start)
    calls = _record_polish_calls(monkeypatch)
    assert _fast_polish(coeffs, start).tobytes() == reference.tobytes()
    guarded = start[:1] if overflow else start
    assert np.isin(guarded, np.concatenate(calls)).all()


@pytest.mark.parametrize("p", POLISHED.values(), ids=POLISHED.keys())
def test_long_double_radius_bounds_distance_to_root(p):
    # one 30-digit Newton step from z + delta gives its distance to the root
    # to about 1e-30, below the radius of 1e-28 to 3e-25; from starts 1e-6
    # off the Aberth roots, the second-order term makes most of the radius
    aberth = _aberth(p.coefficients)
    cs = [mpmath.mpf(c) for c in p.coefficients]
    for start in (aberth, aberth * (1 + 5e-7 + 5e-7j)):
        z, (dr, di), radius = _newton_radius(p.coefficients, start)
        assert np.isfinite(radius).all()
        with mpmath.workdps(30):
            for zk, drk, dik, rk in zip(z, dr, di, radius):
                w = mpmath.mpc(
                    _exact(zk.real) + _exact(drk), _exact(zk.imag) + _exact(dik)
                )
                f, df = _horner_with_derivative(cs, w)
                assert abs(f / df) <= _exact(rk)


def test_compensated_horner_within_its_bound():
    # (x^2 - 2x + 2)^6 near its 6-fold roots 1 +- i: plain float64 Horner is
    # off by about 5e11 times the bound there
    p = IntPolynomial((1,))
    for _ in range(6):
        p = p * IntPolynomial((2, -2, 1))
    n = p.degree
    offsets = np.linspace(-1e-3, 1e-3, 9)
    zr = np.repeat(1 + offsets, offsets.size)
    zi = np.tile(1 + offsets, offsets.size)
    fr, fi = _compensated_horner(p.coefficients, zr, zi)
    u = mpmath.mpf(2) ** -53
    g = (4 * n + 2) * u / (1 - (4 * n + 2) * u)
    with mpmath.workdps(60):
        cs = [mpmath.mpf(c) for c in p.coefficients]
        abs_cs = [abs(c) for c in cs]
        for k in range(zr.size):
            z = mpmath.mpc(_exact(zr[k]), _exact(zi[k]))
            exact = _horner(cs, z)
            res = mpmath.mpc(_exact(fr[k]), _exact(fi[k]))
            assert abs(res - exact) <= u * abs(exact) + 2 * g * g * _horner(abs_cs, abs(z))


# -- sector_count -----------------------------------------------------------------

def test_sector_counts_known():
    assert sector_count(find_roots(P("x^4+1")), 0.0, math.pi) == 2
    assert sector_count([1 + 0j, -1 + 0j], 0.0, math.pi) == 1  # arg 0 in, arg pi out
    roots = list(_locate_roots(multinacci_cofactor(10)))
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
        _locate_roots(p, polish=False)[0] = 0
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
