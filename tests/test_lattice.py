"""Embedding construction, determinant identity, LLL, and shortest vectors.

Reference minima were computed by an independent exhaustive integer-box
search over each order's Gram matrix before this module existed; they are
frozen here and the enumerator must reproduce them bit-for-bit in the
coordinates and to 1e-9 in the lengths.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from minklat.intpoly import IntPolynomial, make_family, multinacci, parse_polynomial
from minklat.lattice import (
    BRUTE_FORCE_DIMENSION_CAP,
    ENUMERATION_DIMENSION_CAP,
    LLL_DELTA,
    build_embedding,
    brute_force_shortest,
    lll_reduce,
    shortest_vector,
    _exact_det,
    _lll,
)
from minklat.measures import m_lower_bound_signature
from minklat.roots import find_roots


def lattice_of(text):
    return build_embedding(find_roots(parse_polynomial(text)))


# (polynomial, squared_min, coordinates, minimizer_degree, minpoly_text)
FROZEN_MINIMA = [
    ("x^6+x^2-1", 3.785871196468, (0, 1, 0, 0, 0, 0), 6, "x^6+x^2-1"),
    ("x^3+x-1", 1.931142463754, (0, 1, 0), 3, "x^3+x-1"),
    ("x^3-x-1", 1.894558248243, (1, 0, -1), 3, "x^3-x^2+1"),
    ("x^2-x-1", 2.0, (1, 0), 1, "x-1"),
    ("x^2+1", 1.0, (0, 1), 2, "x^2+1"),
    ("x^3-2", 2.0, (1, 0, 0), 1, "x-1"),
]


@pytest.mark.parametrize("text,sq,coords,mdeg,minpoly", FROZEN_MINIMA)
def test_shortest_vector_frozen(text, sq, coords, mdeg, minpoly):
    lat = lattice_of(text)
    sv = shortest_vector(lat)
    assert sv.method == "enumeration"
    assert abs(sv.squared_length - sq) < 1e-9
    assert sv.coordinates == coords
    assert sv.minimizer_degree == mdeg
    assert sv.minimizer_minpoly.to_text() == minpoly
    s, t = lat.signature
    assert abs(sv.m_value - sq / (s + t)) < 1e-12


@pytest.mark.parametrize("text,sq,coords,mdeg,minpoly", FROZEN_MINIMA)
def test_brute_force_agrees(text, sq, coords, mdeg, minpoly):
    lat = lattice_of(text)
    s, t = lat.signature
    bf = brute_force_shortest(lat, (s + t) + 1e-6)
    sv = shortest_vector(lat)
    assert bf.method == "brute_force"
    assert bf.coordinates == sv.coordinates
    assert abs(bf.squared_length - sv.squared_length) < 1e-12
    assert bf.element_poly == sv.element_poly


@pytest.mark.parametrize(
    "text,det,disc",
    [
        ("x^3-x-1", 2.39791576165636, -23),
        ("x^2-x-1", 2.23606797749979, 5),
        ("x^2+1", 1.0, -4),
        ("x^3-2", 5.196152422706632, -108),
    ],
)
def test_determinant_identity_values(text, det, disc):
    lat = lattice_of(text)
    assert lat.order_disc == disc
    assert math.isclose(lat.determinant, det, rel_tol=1e-10)
    s, t = lat.signature
    assert math.isclose(
        lat.determinant, 2.0 ** (-t) * math.sqrt(abs(disc)), rel_tol=1e-10
    )


def test_determinant_identity_families():
    # the constructor itself raises on identity failure; sweeping the
    # families through degree 12 exercises it across signatures
    for fam in ("multinacci", "truncated-geom", "even-spread", "root-power"):
        for n in range(2, 13):
            try:
                p = make_family(fam, n)
            except ValueError:
                continue
            if p.degree > 12:
                continue
            build_embedding(find_roots(p))


def test_gram_matches_basis():
    lat = lattice_of("x^3+x-1")
    assert np.allclose(lat.gram, lat.basis_matrix @ lat.basis_matrix.T)
    assert lat.dimension == 3
    assert lat.signature == (1, 1)


def test_psi_one_row():
    # first power-basis row is psi(1): ones on real coords, (1, 0) per pair
    lat = lattice_of("x^6+x^2-1")
    s, t = lat.signature
    expected = [1.0] * s + [1.0, 0.0] * t
    assert np.allclose(lat.basis_matrix[0], expected)
    assert abs(lat.gram[0, 0] - (s + t)) < 1e-12


# -- invariants --------------------------------------------------------------------

INVARIANT_SWEEP = [
    "x^2-x-1",
    "x^2+1",
    "x^2-2",
    "x^3-x-1",
    "x^3+x-1",
    "x^3-2",
    "x^3-x^2-2*x+1",
    "x^4+1",
    "x^4-x^3+x^2+x-1",
    "x^4+x^2-1",
    "x^5-x^3-x^2+x+1",
    "x^6+x^2-1",
]


@pytest.mark.parametrize("text", INVARIANT_SWEEP)
def test_minimum_bounds(text):
    lat = lattice_of(text)
    s, t = lat.signature
    sv = shortest_vector(lat)
    # psi(1) witnesses the upper bound; the signature bound is the floor
    assert sv.squared_length <= (s + t) + 1e-9
    floor = (s + t) * m_lower_bound_signature(s, t)
    assert sv.squared_length >= floor - 1e-9
    assert sv.m_value <= 1.0 + 1e-9


@pytest.mark.parametrize("text", INVARIANT_SWEEP)
def test_brute_force_cross_check(text):
    lat = lattice_of(text)
    if lat.dimension > BRUTE_FORCE_DIMENSION_CAP:
        pytest.skip("beyond brute-force cap")
    s, t = lat.signature
    bf = brute_force_shortest(lat, (s + t) + 1e-6)
    sv = shortest_vector(lat)
    assert bf.coordinates == sv.coordinates
    assert abs(bf.squared_length - sv.squared_length) < 1e-12


@pytest.mark.parametrize("text", ["x^2-2", "x^3-x^2-2*x+1", "x^2+1", "x^4+1"])
def test_degenerate_signatures_hit_witness(text):
    # totally real or totally imaginary fields: the minimum is exactly psi(1)
    lat = lattice_of(text)
    s, t = lat.signature
    assert s == 0 or t == 0
    sv = shortest_vector(lat)
    assert abs(sv.squared_length - (s + t)) < 1e-9
    assert abs(sv.m_value - 1.0) < 1e-9


# -- LLL ---------------------------------------------------------------------------

# larger and ill-conditioned power bases: multinacci(22) has Gram entries near
# 4^22, root_power(8) has degree 24
LLL_FAMILY_BASES = {
    "multinacci15": multinacci(15).to_text(),
    "multinacci22": multinacci(22).to_text(),
    "truncated_geom20": make_family("truncated-geom", 20).to_text(),
    "root_power8": make_family("root-power", 8).to_text(),
}


@pytest.mark.parametrize(
    "text",
    ["x^3-x-1", "x^6+x^2-1", "x^4+x^2-1"]
    + [pytest.param(text, id=name) for name, text in LLL_FAMILY_BASES.items()],
)
def test_lll_preserves_lattice(text):
    lat = lattice_of(text)
    reduced, transform = lll_reduce(lat)
    _, logdet = np.linalg.slogdet(reduced)
    assert math.isclose(math.exp(logdet), lat.determinant, rel_tol=1e-9)
    u = [[Fraction(x) for x in row] for row in transform]
    assert abs(_exact_det(u)) == 1
    recon = np.array([[float(x) for x in row] for row in transform])
    assert np.allclose(recon @ lat.basis_matrix, reduced, atol=1e-9)


def test_lll_reduces_skewed_basis():
    # a deliberately skewed integral basis of Z[alpha] must come back short
    p = parse_polynomial("x^3-x-1")
    roots = find_roots(p)
    skew = [[1, 0, 0], [7, 1, 0], [23, 9, 1]]
    lat = build_embedding(roots, basis=skew)
    assert lat.order_disc == -23
    reduced, _ = lll_reduce(lat)
    assert np.max(np.diag(reduced @ reduced.T)) <= np.max(np.diag(lat.gram))
    sv = shortest_vector(lat)
    assert abs(sv.squared_length - 1.894558248243) < 1e-9


@pytest.mark.parametrize(
    "text,basis",
    [pytest.param(text, None, id=name) for name, text in LLL_FAMILY_BASES.items()]
    + [
        pytest.param(
            "x^3-x-1", [[1, 0, 0], [7, 1, 0], [23, 9, 1]], id="skewed_cubic"
        )
    ],
)
def test_lll_conditions_hold(text, basis):
    # Gram-Schmidt of the reduced rows from Householder QR, independent of
    # the one inside LLL: with b^T = QR, mu[i, j] = R[j, i] / R[j, j] and
    # |b*_j|^2 = R[j, j]^2
    lat = build_embedding(find_roots(parse_polynomial(text)), basis=basis)
    b, _ = lll_reduce(lat)
    r = np.linalg.qr(b.T, mode="r")
    diag = np.diag(r)
    mu = (r / diag[:, None]).T
    norms = diag**2
    n = lat.dimension
    for i in range(n):
        for j in range(i):
            assert abs(mu[i, j]) <= 0.5 + 1e-6
    for k in range(1, n):
        lovasz = (LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]
        assert norms[k] >= lovasz * (1 - 1e-9)


@pytest.mark.parametrize(
    "basis", [[[1, 0], [1, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]]
)
def test_lll_rejects_dependent_rows(basis):
    with pytest.raises(ArithmeticError, match="lost positive definiteness"):
        _lll(np.array(basis, dtype=float))


def test_multinacci_twelve_minimum_is_one():
    lat = build_embedding(find_roots(multinacci(12)))
    sv = shortest_vector(lat)
    assert sv.coordinates == (1,) + (0,) * 11
    assert abs(sv.m_value - 1.0) < 1e-9


def _min_squared_length(p):
    return shortest_vector(build_embedding(find_roots(p))).squared_length


@pytest.mark.parametrize("n", [15, 17, 19, 21, 23, 25, 29])
def test_ill_conditioned_basis_reports_true_length(n):
    # multinacci(n) and truncated_geom(n) are reciprocal, so their roots
    # generate the same order; the power basis of multinacci(n) has Gram
    # entries near 4^n, where v^T G v once came out negative at n = 29
    d2 = _min_squared_length(multinacci(n))
    reference = _min_squared_length(make_family("truncated-geom", n))
    assert d2 > 0
    rel_tol = 1e-8 if n == 29 else 1e-9
    assert abs(d2 - reference) <= rel_tol * reference


# -- supplied bases ------------------------------------------------------------------

def test_scaled_basis_scales_disc():
    lat = build_embedding(
        find_roots(parse_polynomial("x^2-x-1")), basis=[[2, 0], [0, 2]]
    )
    assert lat.order_disc == 80
    assert math.isclose(lat.determinant, 4 * math.sqrt(5), rel_tol=1e-10)


def test_rational_basis_fraction_disc():
    lat = build_embedding(
        find_roots(parse_polynomial("x^2-x-1")),
        basis=[[1, 0], [0, Fraction(1, 2)]],
    )
    assert lat.order_disc == Fraction(5, 4)
    sv = shortest_vector(lat)
    assert abs(sv.squared_length - 0.75) < 1e-9
    assert sv.element_poly == (0, Fraction(1, 2))
    assert sv.minimizer_degree == 2


def test_singular_basis_rejected():
    roots = find_roots(parse_polynomial("x^2-x-1"))
    with pytest.raises(ValueError, match="singular"):
        build_embedding(roots, basis=[[1, 0], [2, 0]])
    with pytest.raises(ValueError, match="2x2"):
        build_embedding(roots, basis=[[1, 0]])


def test_order_without_one_empties_radius():
    # {2, 2*alpha} spans an order-like lattice without 1; nothing lies
    # within the psi(1) radius, which must surface as an error
    lat = build_embedding(
        find_roots(parse_polynomial("x^2-x-1")), basis=[[2, 0], [0, 2]]
    )
    with pytest.raises(RuntimeError, match="radius search empty"):
        shortest_vector(lat)


def test_dimension_caps():
    lat = build_embedding(find_roots(multinacci(9)))
    with pytest.raises(ValueError, match="brute-force cap"):
        brute_force_shortest(lat, 6.0)
    assert ENUMERATION_DIMENSION_CAP == 40
    assert BRUTE_FORCE_DIMENSION_CAP == 8


def test_result_json_shape():
    sv = shortest_vector(lattice_of("x^3-x-1"))
    d = sv.to_json_dict()
    assert d["coordinates"] == [1, 0, -1]
    assert d["method"] == "enumeration"
    assert d["minimizer_minpoly"] == "x^3-x^2+1"
    assert isinstance(d["element_poly"], list)


def test_element_poly_matches_coordinates():
    # element_poly is over the power basis; with the default basis they agree
    sv = shortest_vector(lattice_of("x^6+x^2-1"))
    assert sv.element_poly == (0, 1, 0, 0, 0, 0)
    # and the m value matches the generator's size profile
    from minklat.measures import size_profile

    prof = size_profile(find_roots(parse_polynomial("x^6+x^2-1")))
    assert abs(sv.m_value - prof.m) < 1e-9
