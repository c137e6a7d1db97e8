"""Exact polynomial layer: parsing, arithmetic, Sturm counts, resultants,
irreducibility.  Reference numbers come from an independent cofactor-expansion
Sylvester determinant oracle and hand checks; they are frozen as literals.
"""
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from itertools import product

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from minklat import intpoly
from minklat.intpoly import (
    IntPolynomial,
    _distinct_degree_parts,
    _factor_degree_sizes,
    _sturm_chain,
    discriminant,
    even_spread,
    is_irreducible,
    is_irreducible_of_signature,
    multinacci,
    multinacci_cofactor,
    parse_polynomial,
    resultant,
    root_power,
    sturm_real_count,
    truncated_geom,
    try_divide,
)


def P(text):
    return parse_polynomial(text)


small_coeff = st.integers(min_value=-5, max_value=5)


def nonzero_poly(max_deg=6):
    return (
        st.lists(small_coeff, min_size=1, max_size=max_deg + 1)
        .map(IntPolynomial)
        .filter(lambda p: not p.is_zero)
    )


# -- parsing and formatting ---------------------------------------------------

def test_parse_coefficient_list():
    p = P("1,0,-1,-1")
    assert p.coefficients == (-1, -1, 0, 1)
    assert p.degree == 3
    assert p.to_text() == "x^3-x-1"


def test_parse_human_form():
    assert P("x^3-x-1").coefficients == (-1, -1, 0, 1)
    assert P("x^6+x^2-1").coefficients == (-1, 0, 1, 0, 0, 0, 1)
    assert P("2x^2-3x+4").coefficients == (4, -3, 2)
    assert P("x").coefficients == (0, 1)
    assert P("-x^2+1").coefficients == (1, 0, -1)
    assert P("7").coefficients == (7,)
    assert P("x^10 - 2 x^5 + 1").coefficients == P("1,0,0,0,0,-2,0,0,0,0,1").coefficients


def test_parse_rejects_garbage():
    for bad in ("", "x^", "1..2", "x+y", "3,,4", "3-1"):
        with pytest.raises(ValueError):
            parse_polynomial(bad)


@given(st.lists(small_coeff, min_size=1, max_size=9).filter(lambda c: any(c)))
def test_format_parse_roundtrip(coeffs):
    p = IntPolynomial(coeffs)
    assert parse_polynomial(p.to_text()) == p
    assert parse_polynomial(",".join(str(c) for c in reversed(p.coefficients))) == p


def test_coefficient_list_is_leading_first():
    # one list order for the library and the command line
    assert parse_polynomial("1,0,-1,-1") == parse_polynomial("x^3-x-1")
    assert parse_polynomial("1 0 -1 -1") == parse_polynomial("x^3-x-1")


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("x ^ 2 - 2", (-2, 0, 1)),
        ("x^10 - 2 x^5 + 1", (1, 0, 0, 0, 0, -2, 0, 0, 0, 0, 1)),
        ("- 3 x ^2 + x", (0, 1, -3)),
        ("2*x**2 - 1", (-1, 0, 2)),
        ("x ** 3 - 2 * x", (0, -2, 0, 1)),
        ("x^2 + 0", (0, 0, 1)),
        ("1 0 -2", (-2, 0, 1)),  # without x, a leading-first list
        ("2 3", (3, 2)),
    ],
)
def test_parse_whitespace_between_tokens(text, coeffs):
    assert P(text).coefficients == coeffs


@pytest.mark.parametrize(
    "bad",
    [
        "1 2x",  # once read as 2x+1
        "x2",  # once read as x+2
        "x x",  # once read as 2x
        "x^1 0",  # whitespace inside the exponent
        "1 0x",  # whitespace inside a coefficient
        "2**x",
        "x*2",
    ],
)
def test_parse_rejects_terms_without_sign(bad):
    with pytest.raises(ValueError, match="cannot parse polynomial near"):
        parse_polynomial(bad)


@pytest.mark.parametrize("bad", ["x^2-x^2+1", "0x^2+x-1", "x-x", "0x"])
def test_parse_rejects_vanishing_leading_term(bad):
    with pytest.raises(ValueError, match="leading coefficient"):
        parse_polynomial(bad)


@pytest.mark.parametrize("bad", ["0,1,0,-2", "0,1", "0", "0,0"])
def test_parse_rejects_zero_leading_list_entry(bad):
    # once read as x^2-2, 1 and (twice) the zero polynomial
    with pytest.raises(ValueError, match="leading coefficient must be nonzero"):
        parse_polynomial(bad)


# -- evaluation and arithmetic ------------------------------------------------

def test_evaluate_exact_and_float():
    p = P("x^3-x-1")
    assert p.evaluate(2) == 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(-11, 8)
    assert isinstance(p.evaluate(Fraction(1, 2)), Fraction)
    assert abs(p.evaluate(1.3247179572447460) - 0.0) < 1e-14
    assert p.evaluate(1j) == (1j) ** 3 - 1j - 1


def test_horner_helpers_are_generic():
    import mpmath
    import numpy as np

    from minklat.intpoly import _horner, _horner_with_derivative

    coeffs = P("x^3-x-1").coefficients
    assert _horner(coeffs, Fraction(1, 2)) == Fraction(-11, 8)
    assert _horner_with_derivative(coeffs, 2) == (5, 11)
    p, dp = _horner_with_derivative(coeffs, np.array([2.0, 1j]))
    assert p.tolist() == [5.0, (1j) ** 3 - 1j - 1]
    assert dp.tolist() == [11.0, -4.0]
    with mpmath.workdps(30):
        p, dp = _horner_with_derivative(coeffs, mpmath.mpf(3))
        assert (p, dp) == (23, 26)


def test_horner_with_derivative_keeps_the_out_of_place_floats():
    # the in-place steps must give the floats of dp = dp * x + p and
    # p = p * x + c bit for bit, and leave x alone
    import numpy as np

    from minklat.intpoly import _horner_with_derivative

    rng = np.random.default_rng(0)
    coeffs = [float(c) for c in rng.integers(-9, 10, 40)]
    z = rng.normal(size=64) + 1j * rng.normal(size=64)
    before = z.tobytes()
    p = dp = 0
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    got_p, got_dp = _horner_with_derivative(coeffs, z)
    assert (got_p.tobytes(), got_dp.tobytes()) == (p.tobytes(), dp.tobytes())
    assert z.tobytes() == before


def test_derivative():
    assert P("x^3-x-1").derivative() == P("3x^2-1")
    assert P("5").derivative().is_zero


@given(nonzero_poly(), nonzero_poly(), st.integers(-9, 9))
def test_ring_operations_agree_with_evaluation(p, q, x):
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)


# divisors of degree 1 to 4 whose leading coefficient is not +-1, a third of
# them with content above 1
divisor_poly = st.builds(
    lambda lower, lead, content: IntPolynomial(content * c for c in lower + [lead]),
    st.lists(small_coeff, min_size=1, max_size=4),
    st.sampled_from([-6, -4, -3, -2, 2, 3, 5]),
    st.sampled_from([1, 1, 2, 3, 6, 6]),
)


@given(nonzero_poly(), divisor_poly, st.sampled_from([2, 3]), st.data())
def test_try_divide_exact_quotients_only(a, b, k, data):
    assert try_divide(a * b, b) == a
    # a b / (k b) = a / k is exact over Q, integral only when k divides a
    kb = IntPolynomial(k * c for c in b.coefficients)
    expected = None if a.content() % k else IntPolynomial(c // k for c in a.coefficients)
    assert try_divide(a * b, kb) == expected
    lower = data.draw(st.lists(small_coeff, min_size=1, max_size=b.degree))
    r = IntPolynomial(lower)
    assume(not r.is_zero)
    assert try_divide(a * b + r, b) is None


def test_try_divide():
    assert try_divide(multinacci_cofactor(9), P("x-1")) == multinacci(9)
    assert try_divide(P("x^2+1"), P("x-1")) is None
    assert try_divide(P("2x^2+2"), P("2x+2")) is None  # remainder 4
    assert try_divide(P("x^2+x"), P("2x+2")) is None  # exact over Q: quotient x/2
    assert try_divide(IntPolynomial(()), P("3x-1")) == IntPolynomial(())
    with pytest.raises(ZeroDivisionError):
        try_divide(P("x+1"), IntPolynomial(()))


def test_content_and_primitive():
    p = IntPolynomial((4, -6, 10))
    assert p.content() == 2
    assert p.primitive_part().coefficients == (2, -3, 5)


# -- reciprocal and mirror transforms ------------------------------------------

def test_reciprocal_known_values():
    # reversing multinacci gives the truncated geometric polynomial
    for n in (2, 3, 7, 40):
        assert multinacci(n).reciprocal() == truncated_geom(n)
    with pytest.raises(ValueError):
        P("x^2+x").reciprocal()


@given(st.lists(small_coeff, min_size=2, max_size=8).filter(lambda c: c and c[0] != 0))
def test_reciprocal_involution(coeffs):
    coeffs = list(coeffs)
    coeffs[-1] = 1  # monic
    p = IntPolynomial(coeffs)
    assert p.reciprocal().reciprocal() == p


def test_negate_variable():
    assert P("x^3-x-1").negate_variable() == P("x^3-x+1")
    assert P("x^2-x-1").negate_variable() == P("x^2+x-1")
    # even polynomials are fixed points
    assert P("x^6+x^2-1").negate_variable() == P("x^6+x^2-1")


# -- polynomial families --------------------------------------------------------

def test_family_shapes():
    assert multinacci(3) == P("x^3-x^2-x-1")
    assert multinacci_cofactor(3) == P("x^4-2x^3+1")
    assert truncated_geom(3) == P("x^3+x^2+x-1")
    assert even_spread(6) == P("x^6+x^4+x^2-1")
    assert root_power(2) == P("x^6+x^4-1")


def test_family_argument_validation():
    with pytest.raises(ValueError):
        multinacci(1)
    with pytest.raises(ValueError):
        even_spread(8)  # needs n = 2 mod 4
    with pytest.raises(ValueError):
        root_power(0)


def test_cofactor_identity_all_degrees():
    # x^(n+1) - 2x^n + 1 = (x - 1) * multinacci(n)
    xm1 = P("x-1")
    for n in range(2, 201):
        assert multinacci(n) * xm1 == multinacci_cofactor(n)


# -- Sturm real-root counts ------------------------------------------------------

def test_sturm_known_counts():
    assert sturm_real_count(P("x^3-x-1")) == 1
    assert sturm_real_count(P("x^2+1")) == 0
    assert sturm_real_count(P("x^6+x^2-1")) == 2
    assert sturm_real_count(P("x^2-x-1")) == 2
    assert sturm_real_count(P("x^6+x^4+x^2-1")) == 2


def test_sturm_interval_semantics():
    p = P("x^2-4")  # roots at -2, 2
    assert sturm_real_count(p, (0, 2)) == 1  # half-open: includes right endpoint
    assert sturm_real_count(p, (2, None)) == 0  # excludes left endpoint
    assert sturm_real_count(p, (None, None)) == 2
    assert sturm_real_count(p, (Fraction(-5, 2), Fraction(5, 2))) == 2
    assert sturm_real_count(p, (-2, 2)) == 1


def test_sturm_dominant_root_window_large_degree():
    # dominant multinacci root lies in (2n/(n+1), 2]; nothing beyond 2.
    # float64 cannot separate the root from 2 here, the chain can.
    for n in (52, 200):
        p = multinacci(n)
        assert sturm_real_count(p, (Fraction(2 * n, n + 1), 2)) == 1
        assert sturm_real_count(p, (2, None)) == 0


def test_sturm_degree_800_is_cheap():
    assert sturm_real_count(multinacci(800)) == 2
    assert sturm_real_count(multinacci(801)) == 1


squarefree_factor = (
    st.lists(st.integers(-3, 3), min_size=2, max_size=4)
    .filter(lambda cs: cs[-1] != 0)
    .map(IntPolynomial)
    .filter(lambda p: p.degree == 1 or discriminant(p) != 0)
)


@settings(max_examples=200)
@given(squarefree_factor, squarefree_factor)
def test_sturm_chain_ends_at_the_repeated_factor(f, g):
    # p = f g^2 with f, g squarefree and coprime: gcd(p, p') = g, and the
    # chain's last member is a multiple of it
    assume(resultant(f, g) != 0)
    p = f * g * g
    assert IntPolynomial(_sturm_chain(p)[-1]).normalized() == g.normalized()


def test_sturm_rejects_repeated_roots():
    with pytest.raises(ValueError, match="squarefree required"):
        sturm_real_count(P("x^2-2x+1"))
    with pytest.raises(ValueError, match="squarefree required"):
        sturm_real_count(P("x^4+2x^2+1"))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True))
def test_sturm_counts_distinct_integer_roots(roots):
    p = IntPolynomial((1,))
    for r in roots:
        p = p * IntPolynomial((-r, 1))
    assert sturm_real_count(p) == len(roots)
    # half-open interval (a, b]
    a, b = Fraction(-21), Fraction(7, 2)
    assert sturm_real_count(p, (a, b)) == sum(1 for r in roots if a < r <= b)
    mid = Fraction(1, 3)
    total = sturm_real_count(p, (None, mid)) + sturm_real_count(p, (mid, None))
    assert total == len(roots)


@st.composite
def roots_and_endpoints(draw):
    """Distinct integer roots and two Fraction endpoints a < b: roots
    themselves, or ratios with denominators up to 10^15."""
    roots = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=7, unique=True))

    def endpoint():
        if draw(st.booleans()):
            return Fraction(draw(st.sampled_from(roots)))
        den = draw(st.one_of(st.integers(2, 9), st.integers(2, 10 ** 15)))
        return Fraction(draw(st.integers(-13 * den, 13 * den)), den)

    a, b = endpoint(), endpoint()
    assume(a != b)
    return roots, min(a, b), max(a, b)


@settings(max_examples=300)
@given(roots_and_endpoints(), st.integers(0, 2))
def test_sturm_count_at_rational_endpoints(case, extra):
    # p = prod (x - k), times x^2 + 1 when extra >= 1 and x^2 + 4 when
    # extra = 2: neither factor adds a real root to any count
    roots, a, b = case
    p = IntPolynomial((1,))
    for k in roots:
        p = p * IntPolynomial((-k, 1))
    if extra:
        p = p * P("x^2+1")
    if extra == 2:
        p = p * P("x^2+4")
    assert sturm_real_count(p, (a, b)) == sum(1 for k in roots if a < k <= b)
    assert sturm_real_count(p, (None, a)) == sum(1 for k in roots if k <= a)
    assert sturm_real_count(p, (b, None)) == sum(1 for k in roots if k > b)


# -- pseudo-remainder --------------------------------------------------------------

def _multiply_through_pseudo_rem(a, b):
    # the textbook loop: scale the remainder by lc(b) at every step, then
    # cancel its leading term, O((da - db + 1) da) products
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da, db - 1, -1):
        c = r[k]
        for i in range(k):
            r[i] *= lb
        if c:
            for i in range(db):
                r[k - db + i] -= c * b[i]
        r[k] = 0
    while r and r[-1] == 0:
        r.pop()
    return r


sparse_coeff = st.one_of(st.just(0), st.integers(-30, 30))


@st.composite
def pseudo_division_pair(draw):
    """(a, b) as dense int lists, deg a >= deg b >= 0, both leading
    coefficients nonzero, lc(b) often negative or not a unit; half the
    dividends are q b + r with zero digits in q."""
    lead = draw(st.sampled_from([-7, -3, -2, -1, 1, 2, 4, 9]))
    b = draw(st.lists(sparse_coeff, max_size=5)) + [lead]
    if draw(st.booleans()):
        a = draw(st.lists(sparse_coeff, min_size=len(b) - 1, max_size=10))
        a.append(draw(st.integers(1, 30)) * draw(st.sampled_from([-1, 1])))
    else:
        q = draw(st.lists(sparse_coeff, max_size=6)) + [draw(st.sampled_from([-5, -1, 1, 3]))]
        r = draw(st.lists(sparse_coeff, max_size=len(b) - 1))
        a = list(intpoly._poly_mul(q, b))
        for i, c in enumerate(r):
            a[i] += c
    return a, b


@settings(max_examples=300)
@given(pseudo_division_pair())
def test_pseudo_rem_equals_the_multiply_through_loop(pair):
    a, b = pair
    expected = _multiply_through_pseudo_rem(a, b)
    assert intpoly._pseudo_rem(a, b) == expected
    # lc(b)^(da-db+1) a = Q b + prem(a, b), with an integer Q
    scale = b[-1] ** (len(a) - len(b) + 1)
    q = try_divide(IntPolynomial(c * scale for c in a) - IntPolynomial(expected), IntPolynomial(b))
    assert q is not None and len(expected) < len(b)


FAMILY_CHAINS = {
    "truncated_geom151": truncated_geom(151),
    "multinacci150": multinacci(150),
    "even_spread402": even_spread(402),
    "multinacci_cofactor400": multinacci_cofactor(400),
}


@pytest.mark.parametrize("p", FAMILY_CHAINS.values(), ids=FAMILY_CHAINS.keys())
def test_remainder_sequence_matches_the_multiply_through_loop(p, monkeypatch):
    a, b = list(p.coefficients), list(p.derivative().coefficients)
    got = intpoly._remainder_sequence(a, b)
    monkeypatch.setattr(intpoly, "_pseudo_rem", _multiply_through_pseudo_rem)
    assert got == intpoly._remainder_sequence(a, b)


# -- resultant and discriminant ----------------------------------------------------

def test_discriminant_reference_values():
    # independent Sylvester-determinant oracle values
    assert discriminant(P("x^3-x-1")) == -23
    assert discriminant(P("x^2-x-1")) == 5
    assert discriminant(P("x^2+1")) == -4
    assert discriminant(P("x^3-2")) == -108
    assert discriminant(P("x^5-x-1")) == 2869
    assert discriminant(P("2x^2+2x+2")) == -12  # 2^(2n-2) * disc(x^2+x+1)


def test_discriminant_degree_guard():
    # a linear polynomial has no root pairs: the resultant gives lc/lc = 1
    assert discriminant(P("x-1")) == 1
    assert discriminant(P("3x+2")) == 1
    with pytest.raises(ValueError, match="discriminant undefined"):
        discriminant(P("5"))


def test_resultant_reference_values():
    assert resultant(P("x^2-1"), P("x-2")) == 3  # (2-1)(2+1)
    assert resultant(P("x-2"), P("x^2-1")) == 3
    assert resultant(P("x^2+1"), P("x^2-2")) == 9
    assert resultant(P("x^2-1"), P("x-1")) == 0


@given(nonzero_poly(4), st.integers(-6, 6))
def test_resultant_with_linear_factor_is_evaluation(p, a):
    # res(x - a, p) = p(a)
    assert resultant(IntPolynomial((-a, 1)), p) == p.evaluate(a)


@given(nonzero_poly(3), nonzero_poly(3), nonzero_poly(3))
@settings(max_examples=60)
def test_resultant_multiplicative(p, q, r):
    assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


@given(nonzero_poly(4), nonzero_poly(4))
def test_resultant_swap_sign(p, q):
    s = -1 if (p.degree * q.degree) % 2 else 1
    assert resultant(p, q) == s * resultant(q, p)


def _sylvester_determinant(p, q):
    """res(p, q) as the determinant of the Sylvester matrix, by exact
    Fraction elimination: an oracle independent of the remainder sequence."""
    m, n = p.degree, q.degree
    size = m + n
    rows = [[0] * i + list(p.coefficients[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(q.coefficients[::-1]) + [0] * (m - 1 - i) for i in range(m)]
    rows = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] / rows[col][col]
            if f:
                for c in range(col, size):
                    rows[r][c] -= f * rows[col][c]
    assert det.denominator == 1
    return int(det)


# degrees 0 to 6; leading coefficients negative or not +-1, and content > 1
sylvester_poly = st.builds(
    lambda lower, lead, content: IntPolynomial(content * c for c in lower + [lead]),
    st.lists(small_coeff, max_size=6),
    st.sampled_from([-4, -3, -2, -1, 1, 2, 3]),
    st.sampled_from([1, 1, 2, 3, 6]),
)


@settings(max_examples=300)
@given(sylvester_poly, sylvester_poly)
def test_resultant_equals_sylvester_determinant(p, q):
    assert resultant(p, q) == _sylvester_determinant(p, q)
    assert resultant(q, p) == _sylvester_determinant(q, p)


@pytest.mark.parametrize(
    "n, a, b", [(5, -1, -1), (151, -1, -1), (401, 1, -1), (7, 0, 3), (150, 0, -2)]
)
def test_discriminant_of_trinomial_closed_form(n, a, b):
    # the remainder sequence of x^n + a x + b drops from degree n - 1 to 1
    # (or 0) in one step
    p = IntPolynomial([b, a] + [0] * (n - 2) + [1])
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    expected = sign * (n**n * b ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * a**n)
    assert discriminant(p) == expected


def test_discriminant_large_family_members():
    # the remainder sequence is short for these; this must stay fast
    d = discriminant(multinacci(60))
    assert d != 0
    assert discriminant(truncated_geom(60)) != 0


# -- irreducibility -------------------------------------------------------------------

def test_irreducible_known_verdicts():
    assert is_irreducible(P("x^3-x-1")) is True
    assert is_irreducible(P("x^6+x^4+x^2-1")) is True
    assert is_irreducible(P("x^6+x^2-1")) is True
    assert is_irreducible(P("x^2-x-1")) is True
    assert is_irreducible(multinacci(8)) is True
    assert is_irreducible(root_power(2)) is True


def test_reducible_with_witness():
    # x^4+x^2+1 = (x^2-x+1)(x^2+x+1); the canonical witness is the smaller
    # coefficient tuple read from the leading coefficient down
    verdict, factor = is_irreducible(P("x^4+x^2+1"), return_witness=True)
    assert verdict is False
    assert factor == P("x^2-x+1")
    assert try_divide(P("x^4+x^2+1"), factor) is not None

    verdict, factor = is_irreducible(multinacci_cofactor(6), return_witness=True)
    assert verdict is False
    assert try_divide(multinacci_cofactor(6), factor) is not None

    verdict, factor = is_irreducible(P("x^4-4"), return_witness=True)
    assert verdict is False
    assert try_divide(P("x^4-4"), factor) is not None

    # repeated factor: caught by the derivative gcd
    square = P("x^2+x+1") * P("x^2+x+1")
    verdict, factor = is_irreducible(square, return_witness=True)
    assert verdict is False
    assert factor == P("x^2+x+1")


def test_irreducible_handles_content_and_zero_root():
    assert is_irreducible(P("2x^2+2")) is True  # content is a unit over Q
    verdict, factor = is_irreducible(P("x^3+x"), return_witness=True)
    assert verdict is False and factor == P("x")
    verdict, factor = is_irreducible(P("6x^2+5x+1"), return_witness=True)
    assert verdict is False
    assert try_divide(P("6x^2+5x+1"), factor) is not None


@pytest.mark.parametrize(
    "text, witness",
    [
        ("6x^4+2x^3+5x^2+x+1", "2x^2+1"),
        ("10x^6+2x^4+17x^3+3x+3", "2x^3+3"),
        ("2x^4+1", None),
        ("2x^3+x+1", None),
        # repeated factors, taken from the Sturm chain and sign-normalized
        ("-x^4-2x^3-3x^2-2x-1", "x^2+x+1"),
        ("4x^4+4x^3+5x^2+2x+1", "2x^2+x+1"),
        # 49 * (1/49) and 729 * (1/729) round below 1 in floats; the monic
        # form must keep its leading 1 exactly
        ("49x^4-150x^3-141x^2+18x+9", "x^2-3x-3"),
        ("729x^6-3402x^5+10206x^4-19872x^3+25164x^2-20904x+7432", None),
    ],
)
def test_non_monic_irreducibility_maps_the_witness_back(text, witness):
    # a squarefree p is decided on its monic form lc^(n-1) p(x/lc), whose
    # factors are mapped back through x -> lc x; 6x^4+2x^3+5x^2+x+1 =
    # (2x^2+1)(3x^2+x+1), and the canonical witness has the smaller leading
    # coefficient
    verdict, factor = is_irreducible(P(text), return_witness=True)
    if witness is None:
        assert (verdict, factor) == (True, None)
    else:
        assert verdict is False and factor == P(witness)
        assert try_divide(P(text), factor) is not None


def _cauchy_bound(p):
    return 1 + max(abs(c) for c in p.coefficients)


def _divides_monic(p, factor):
    return try_divide(p, factor) is not None


def _oracle_reducible(p):
    """Trial division oracle for monic polynomials of degree <= 4."""
    b = _cauchy_bound(p)
    for a in range(-b, b + 1):
        if p.evaluate(a) == 0:
            return True
    if p.degree == 4:
        c0 = p.constant_term
        for c in range(-b * b, b * b + 1):
            if c == 0 or c0 % c:
                continue
            for bb in range(-2 * b, 2 * b + 1):
                if _divides_monic(p, IntPolynomial((c, bb, 1))):
                    return True
    return False


def test_irreducibility_matches_trial_division_all_monic_cubics():
    for c0 in range(-5, 6):
        for c1 in range(-5, 6):
            for c2 in range(-5, 6):
                p = IntPolynomial((c0, c1, c2, 1))
                assert is_irreducible(p) == (not _oracle_reducible(p)), p


@given(st.tuples(small_coeff, small_coeff, small_coeff, small_coeff))
@settings(max_examples=150)
def test_irreducibility_matches_trial_division_monic_quartics(tail):
    p = IntPolynomial(tuple(tail) + (1,))
    assert is_irreducible(p) == (not _oracle_reducible(p)), p


def test_irreducibility_matches_trial_division_all_small_monic_quartics():
    for tail in product(range(-2, 3), repeat=4):
        p = IntPolynomial(tail + (1,))
        assert is_irreducible(p) == (not _oracle_reducible(p)), p


@given(st.integers(2, 11))
@settings(max_examples=20, deadline=None)
def test_multinacci_family_irreducible(n):
    # the mod-p degree sets decide these; upstream, family members above
    # degree 12 keep the assumed flag, because certifying them would change
    # report bytes and the stage takes about 0.3 s on even_spread(102)
    assert is_irreducible(multinacci(n)) is True


@pytest.fixture
def recombination_calls(monkeypatch):
    """Record every _find_factor call, i.e. every Hensel recombination."""
    calls = []
    original = intpoly._find_factor

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(intpoly, "_find_factor", spy)
    return calls


def test_degree_sets_decide_family_members(recombination_calls):
    members = [root_power(4), even_spread(10)]
    members += [multinacci(n) for n in range(2, 31)]
    for p in members:
        assert is_irreducible(p) is True, p
    assert recombination_calls == []


def _factor_degrees_mod_p(f, prime):
    parts = _distinct_degree_parts(f, prime)
    if parts is None:
        return None
    return [d for d, g in parts for _ in range((len(g) - 1) // d)]


def test_factor_degrees_mod_p_known_factorizations():
    # x^5+x+1 = (x^2+x+1)(x^3+x^2+1) mod 2; x^2+1 stays irreducible mod 3;
    # x^4+x^2+1 = (x-2)(x-3)(x-4)(x-5) mod 7
    assert sorted(_factor_degrees_mod_p(P("x^5+x+1").coefficients, 2)) == [2, 3]
    assert _factor_degrees_mod_p(P("x^2+1").coefficients, 3) == [2]
    assert _factor_degrees_mod_p(P("x^4+x^2+1").coefficients, 7) == [1, 1, 1, 1]
    # not squarefree: x^4+1 = (x+1)^4 mod 2, and 1 is a double root of
    # x^5+x+1 mod 3
    assert _factor_degrees_mod_p(P("x^4+1").coefficients, 2) is None
    assert _factor_degrees_mod_p(P("x^5+x+1").coefficients, 3) is None


def test_factor_left_over_by_the_degree_loop_keeps_its_size():
    # mod 17 the cubic stays irreducible and the quartic splits into two
    # quadratics, so the cubic is what the distinct-degree loop leaves over
    cubic = P("x^3+x^2-2x-1")
    f = cubic * P("x^4+2x^2+2")
    assert sorted(_factor_degrees_mod_p(f.coefficients, 17)) == [2, 2, 3]
    assert _factor_degree_sizes(f)[0] == [3]
    verdict, factor = is_irreducible(f, return_witness=True)
    assert verdict is False
    assert factor == cubic


@pytest.mark.parametrize("text", ["x^4+1", "x^4-10x^2+1"])
def test_irreducible_that_splits_mod_every_prime_falls_through(text, recombination_calls):
    # both are irreducible over Q, but split mod every prime into factors of
    # degree at most 2, so size 2 survives and Hensel recombination decides
    assert _factor_degree_sizes(P(text))[0] == [2]
    assert is_irreducible(P(text)) is True
    assert len(recombination_calls) == 1


@pytest.mark.parametrize(
    "text, witness",
    [
        ("x^5+x+1", "x^2+x+1"),
        ("x^6-x^4+2x^2-1", "x^3-x^2+1"),
        ("x^6+x^4+x^3+x^2-1", "x^2+x+1"),
    ],
)
def test_reducible_search_candidates_keep_their_witness(text, witness):
    # reducible candidates of the degree-5 and degree-6 searches, with their
    # canonical witnesses
    assert _factor_degree_sizes(P(text))[0] != []
    verdict, factor = is_irreducible(P(text), return_witness=True)
    assert verdict is False
    assert factor == P(witness)


factor_poly = st.lists(small_coeff, min_size=2, max_size=5).map(IntPolynomial)


@given(factor_poly, factor_poly)
@settings(max_examples=100, deadline=None)
def test_witness_of_a_product_has_the_least_factor_degree(a, b):
    assume(a.degree >= 1 and b.degree >= 1)
    assume(is_irreducible(a) and is_irreducible(b))
    f = a * b
    verdict, factor = is_irreducible(f, return_witness=True)
    assert verdict is False
    assert factor.degree == min(a.degree, b.degree)
    assert try_divide(f, factor) is not None


def test_factor_with_larger_coefficients_than_the_product():
    # (x^3-x^2+2x-1)(x^3-x-1) has coefficients of size 1 only; the witness
    # has a 2, which a lift to p^k below twice the factor bound loses (mod 3,
    # its residue x^3-x^2-x-1 does not divide and only x^3-x-1 is found)
    f = P("x^6-x^5+x^4-x^3-x^2-x+1")
    assert f == P("x^3-x^2+2x-1") * P("x^3-x-1")
    assert is_irreducible(f, return_witness=True) == (False, P("x^3-x^2+2x-1"))


def _timed_verdict(p):
    start = time.perf_counter()
    verdict, factor = is_irreducible(p, return_witness=True)
    assert time.perf_counter() - start < 1.0
    return verdict, factor


def test_root_power_12_is_decided_exactly():
    # degree 36: size 12 survives every degree set (mod 37 the factors have
    # degrees 12 and 24), and recombination rules it out
    assert _timed_verdict(root_power(12)) == (True, None)


# the product of the odd primes below 50: both polynomials below are
# squares mod every prime below 50, so the degree loop reads larger primes
_Q = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47


def test_reducible_that_no_small_prime_keeps_squarefree():
    f = P("x^2-2") * IntPolynomial((-2 - _Q, 0, 1))
    verdict, factor = _timed_verdict(f)
    assert verdict is False
    assert try_divide(f, factor) is not None


def test_irreducible_that_no_small_prime_keeps_squarefree():
    assert _timed_verdict(IntPolynomial((-2 * _Q, 0, 1))) == (True, None)


def _complete_reference(work):
    """(verdict, canonical witness) of a monic squarefree work from every size
    1..n/2 at one prime, the odd prime below 50 with the fewest factors."""
    local = []
    for prime in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        parts = _distinct_degree_parts(work.coefficients, prime)
        if parts is not None:
            local.append((sum((len(g) - 1) // d for d, g in parts), prime, parts))
    _, prime, parts = min(local, key=lambda c: c[:2])
    sizes = list(range(1, work.degree // 2 + 1))
    factors = intpoly._find_factor(work, sizes, prime, parts)
    witness = min((g.normalized() for g in factors), key=lambda w: w.coefficients[::-1],
                  default=None)
    return witness is None, witness


def _random_monic(rng, degree):
    return IntPolynomial([rng.randint(-3, 3) for _ in range(degree)] + [1])


def _early_stop_corpus():
    """Products of two and three random monic factors, squarefree, and
    random monic polynomials and family members, all of degree 2-36."""
    rng = random.Random(0)
    corpus = [multinacci(n) for n in range(2, 20, 3)] + [root_power(n) for n in (2, 5, 9)]
    corpus += [even_spread(n) for n in (6, 14, 22)]
    corpus += [_random_monic(rng, rng.randint(2, 20)) for _ in range(20)]
    for _ in range(60):
        factors = [_random_monic(rng, rng.randint(1, 12)) for _ in range(rng.choice((2, 3)))]
        corpus.append(reduce(lambda a, b: a * b, factors))
    corpus += [reduce(lambda a, b: a * b, [_random_monic(rng, 12) for _ in range(3)])
               for _ in range(2)]
    return [p for p in corpus if len(_sturm_chain(p)[-1]) == 1]


def test_early_stop_keeps_the_verdict_and_witness_of_a_complete_reference():
    # the degree loop stops once its sizes settle, so it may leave sizes that
    # a complete reading of primes would drop; _find_factor still returns
    # every factor of the least size that has one
    corpus = _early_stop_corpus()
    reducible = 0
    for p in corpus:
        expected = _complete_reference(p)
        assert is_irreducible(p, return_witness=True) == expected, p
        reducible += expected[0] is False
    assert len(corpus) > 80 and reducible > 50


@pytest.fixture
def primes_read(monkeypatch):
    """Record the prime of every _distinct_degree_parts call."""
    primes = []
    original = intpoly._distinct_degree_parts

    def spy(f, prime):
        primes.append(prime)
        return original(f, prime)

    monkeypatch.setattr(intpoly, "_distinct_degree_parts", spy)
    return primes


def test_degree_loop_stops_once_its_sizes_settle(primes_read):
    # x^5+x+1 = (x^2+x+1)(x^3-x^2+1): mod 2 the sizes settle at [2], and
    # three more usable primes leave them there
    assert is_irreducible(P("x^5+x+1"), return_witness=True) == (False, P("x^2+x+1"))
    assert len(primes_read) <= 7


@pytest.mark.parametrize(
    "p", [P("x^5+x+1"), P("x^6-x^4+2x^2-1"), root_power(12), even_spread(102)],
    ids=["x^5+x+1", "x^6-x^4+2x^2-1", "root_power(12)", "even_spread(102)"],
)
def test_early_stop_reads_no_more_primes_than_the_complete_loop(p, primes_read, monkeypatch):
    early = is_irreducible(p, return_witness=True), len(primes_read)
    primes_read.clear()
    monkeypatch.setattr(intpoly, "SETTLED_PRIMES", math.inf)
    complete = is_irreducible(p, return_witness=True), len(primes_read)
    assert early[0] == complete[0]
    assert early[1] <= complete[1]


def _run_python(code, *args):
    """stdout of a fresh interpreter running code with this checkout's src first."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(intpoly.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir},
    ).stdout


# mpmath is a test-only oracle: no module of the package may import it
@pytest.mark.parametrize("module", [
    "minklat.intpoly", "minklat.constants", "minklat.roots", "minklat.measures",
    "minklat.lattice", "minklat.search", "minklat.verify", "minklat.cli",
])
def test_import_leaves_mpmath_unimported(module):
    code = f"import sys, {module}; print('mpmath' in sys.modules)"
    assert _run_python(code).strip() == b"False"


# only a threaded search uses multiprocessing, and imports it there
@pytest.mark.parametrize("module", ["minklat.search", "minklat.cli"])
def test_import_leaves_multiprocessing_unimported(module):
    code = f"import sys, {module}; print('multiprocessing' in sys.modules)"
    assert _run_python(code).strip() == b"False"


def test_verify_report_unchanged_with_mpmath_blocked():
    # sys.modules[name] = None makes every later import of name fail
    main = "from minklat.cli import main; main()"
    args = ("verify", "--suite", "fast", "--format", "csv")
    blocked = _run_python("import sys; sys.modules['mpmath'] = None; " + main, *args)
    assert blocked == _run_python(main, *args)


def test_totally_real_irreducible_all_monic_cubics():
    # an irreducible cubic is squarefree, and the sign of its discriminant
    # gives its real-root count: 3 if positive, 1 if negative
    for c0 in range(-5, 6):
        for c1 in range(-5, 6):
            for c2 in range(-5, 6):
                p = IntPolynomial((c0, c1, c2, 1))
                irreducible = not _oracle_reducible(p)
                real_roots = 3 if discriminant(p) > 0 else 1
                for s in range(4):
                    expected = irreducible and s == real_roots
                    assert is_irreducible_of_signature(p, s) == expected, (p, s)


def test_totally_real_irreducible_rejects_repeated_roots():
    # not squarefree, so the Sturm count raises; reducible either way
    for text in ("x^2+4x+4", "x^3-3x+2", "x^3-x^2-x+1", "x^4+2x^2+1"):
        p = P(text)
        for s in range(p.degree + 1):
            assert not is_irreducible_of_signature(p, s), (p, s)
    assert is_irreducible_of_signature(P("x^2-x-1"), 2)
    assert not is_irreducible_of_signature(P("x^3-x-1"), 3)
    assert is_irreducible_of_signature(P("x^3-x-1"), 1)
    assert is_irreducible_of_signature(P("x^6+x^2-1"), 2)


def test_signature_test_decides_through_is_irreducible(monkeypatch):
    # the Sturm count is a gate in front of is_irreducible, the one
    # irreducibility decision, which runs exactly when the count matches
    calls = []
    original = intpoly.is_irreducible

    def spy(p, return_witness=False):
        calls.append(p)
        return original(p, return_witness)

    monkeypatch.setattr(intpoly, "is_irreducible", spy)
    for text, s, expected, count_matches in [
        ("x^3-x-1", 1, True, True),  # irreducible
        ("x^3-2x^2-x+2", 3, False, True),  # (x-2)(x-1)(x+1)
        ("x^3-x^2-x-2", 1, False, True),  # (x-2)(x^2+x+1)
        ("2x^3-2x-2", 1, True, True),  # content 2
        ("x^3-x-1", 3, False, False),  # one real root, not three
    ]:
        calls.clear()
        assert is_irreducible_of_signature(P(text), s) is expected, text
        assert calls == ([P(text)] if count_matches else []), text
