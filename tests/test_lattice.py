"""Embedding construction, determinant identity, LLL, and shortest vectors.

Reference minima were computed by an independent exhaustive integer-box
search over each lattice's Gram matrix before this module existed; they are
frozen here and the enumerator must reproduce them bit-for-bit in the
coordinates and to 1e-9 in the lengths.
"""
import gc
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minklat.intpoly import (
    IntPolynomial,
    even_spread,
    is_irreducible,
    multinacci,
    parse_polynomial,
    root_power,
    truncated_geom,
)
from minklat.lattice import (
    ENUMERATION_DIMENSION_CAP,
    LLL_DELTA,
    RADIUS_SLACK,
    build_embedding,
    lll_reduce,
    shortest_vector,
    _combine_rows,
    _fincke_pohst,
    _lll,
    _minimal_polynomial,
    _pick_minimizer,
)
from minklat.measures import m_lower_bound_signature
from minklat.roots import find_roots
from lattice_oracle import BRUTE_FORCE_DIMENSION_CAP, brute_force_shortest, exact_det
from test_search import DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE


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
    for family in (multinacci, truncated_geom, even_spread, root_power):
        for n in range(2, 13):
            try:
                p = family(n)
            except ValueError:
                continue
            if p.degree > 12:
                continue
            build_embedding(find_roots(p))


def test_gram_matches_basis():
    # the Gram matrix of psi(a^i) is the form sum r^(i+j) over the real
    # conjugates r plus Re(z^i conj(z)^j) over one z per complex pair
    lat = lattice_of("x^3+x-1")
    roots = lat.conjugates
    expected = [
        [
            sum(r ** (i + j) for r in roots.real_roots)
            + sum((z**i * z.conjugate() ** j).real for z in roots.complex_reps)
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert np.allclose(lat.basis_matrix @ lat.basis_matrix.T, expected)
    assert lat.dimension == 3
    assert lat.signature == (1, 1)


def _reference_embedding(roots, rows):
    # one element at a time, every power and every conversion recomputed
    out = []
    for coeffs in rows:
        row = [
            float(sum(float(c) * r**k for k, c in enumerate(coeffs)))
            for r in roots.real_roots
        ]
        for z in roots.complex_reps:
            val = sum(complex(c) * z**k for k, c in enumerate(coeffs))
            row += [val.real, val.imag]
        out.append(np.array(row))
    return np.vstack(out)


# a deliberately skewed basis of Z[alpha] for x^3-x-1, over the power basis
SKEWED_CUBIC = [[1, 0, 0], [7, 1, 0], [23, 9, 1]]


def _embedded_basis(roots, basis):
    """Z[alpha]'s embedded power basis, or, given another basis over the
    power basis, its rows embedded one element at a time."""
    if basis is None:
        return build_embedding(roots).basis_matrix
    return _reference_embedding(roots, basis)


@pytest.mark.parametrize(
    "text",
    [
        "x^3-x^2+1",
        "x^4+x^2-1",
        "x^5-x^4+x^3-x^2+2x-1",
        "x^6+x^2-1",
        "x^6-2x^4+3x^2-1",
        # root_power(8): purely imaginary conjugates put signed zeros in the
        # embedding
        "x^24+x^16-1",
        # Dedekind's cubic: Z[alpha] has index 2 in the maximal order
        "x^3-x^2-2x-8",
        # dense powers of degree 22
        pytest.param(multinacci(22).to_text(), id="multinacci22"),
        pytest.param(truncated_geom(22).to_text(), id="truncated_geom22"),
    ],
    # ids in the form the suite has printed for these cases, so test names
    # stay comparable across versions
    ids=lambda text: f"{text}-None",
)
def test_embedding_bit_identical_to_per_element_sum(text):
    # each row is the power table plus 0.0; every entry must still be the
    # same float, signed zeros included, as embedding the element alone by
    # summing all its terms from 0
    roots = find_roots(parse_polynomial(text))
    lat = build_embedding(roots)
    expected = _reference_embedding(roots, np.eye(roots.degree, dtype=int).tolist())
    assert lat.basis_matrix.tobytes() == expected.tobytes()


def test_psi_one_row():
    # first power-basis row is psi(1): ones on real coords, (1, 0) per pair
    lat = lattice_of("x^6+x^2-1")
    s, t = lat.signature
    expected = [1.0] * s + [1.0, 0.0] * t
    assert np.allclose(lat.basis_matrix[0], expected)
    assert abs((lat.basis_matrix @ lat.basis_matrix.T)[0, 0] - (s + t)) < 1e-12


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
    "multinacci19": multinacci(19).to_text(),
    "multinacci21": multinacci(21).to_text(),
    "multinacci22": multinacci(22).to_text(),
    "truncated_geom20": truncated_geom(20).to_text(),
    "root_power8": root_power(8).to_text(),
}

# power bases where the updated Gram-Schmidt data drifts so far that the
# first pass ends with the LLL conditions broken on the rows' own data, and
# only the pass over data computed fresh from the rows repairs them
LLL_DRIFT_BASES = {
    "multinacci28": multinacci(28).to_text(),
    "multinacci30": multinacci(30).to_text(),
}


@pytest.mark.parametrize(
    "text",
    ["x^3-x-1", "x^6+x^2-1", "x^4+x^2-1"]
    + [pytest.param(text, id=name) for name, text in LLL_FAMILY_BASES.items()]
    + [pytest.param(text, id=name) for name, text in LLL_DRIFT_BASES.items()],
)
def test_lll_preserves_lattice(text):
    lat = lattice_of(text)
    reduced, transform = lll_reduce(lat)
    _, logdet = np.linalg.slogdet(reduced)
    assert math.isclose(math.exp(logdet), lat.determinant, rel_tol=1e-9)
    assert abs(exact_det(transform)) == 1
    recon = np.array([[float(x) for x in row] for row in transform])
    assert np.allclose(recon @ lat.basis_matrix, reduced, atol=1e-9)


def test_lll_reduces_skewed_basis():
    # a deliberately skewed basis of Z[alpha] must come back short
    roots = find_roots(parse_polynomial("x^3-x-1"))
    basis = _reference_embedding(roots, SKEWED_CUBIC)
    assert math.isclose(abs(np.linalg.det(basis)), math.sqrt(23) / 2, rel_tol=1e-10)
    reduced, _ = _lll(basis)
    gram = basis @ basis.T
    assert np.max(np.diag(reduced @ reduced.T)) <= np.max(np.diag(gram))
    found = _fincke_pohst(reduced @ reduced.T, roots.s + roots.t + RADIUS_SLACK)
    _, sq_len = _pick_minimizer(reduced, found)
    assert abs(sq_len - 1.894558248243) < 1e-9


@pytest.mark.parametrize(
    "text,basis",
    [pytest.param(text, None, id=name) for name, text in LLL_FAMILY_BASES.items()]
    + [pytest.param(text, None, id=name) for name, text in LLL_DRIFT_BASES.items()]
    + [pytest.param("x^3-x-1", SKEWED_CUBIC, id="skewed_cubic")],
)
def test_lll_conditions_hold(text, basis):
    # Gram-Schmidt of the reduced rows from Householder QR, independent of
    # the one inside LLL: with b^T = QR, mu[i, j] = R[j, i] / R[j, j] and
    # |b*_j|^2 = R[j, j]^2
    b, _ = _lll(_embedded_basis(find_roots(parse_polynomial(text)), basis))
    r = np.linalg.qr(b.T, mode="r")
    diag = np.diag(r)
    mu = (r / diag[:, None]).T
    norms = diag**2
    n = b.shape[0]
    for i in range(n):
        for j in range(i):
            assert abs(mu[i, j]) <= 0.5 + 1e-6
    for k in range(1, n):
        lovasz = (LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]
        assert norms[k] >= lovasz * (1 - 1e-9)


def _numpy_lll(basis):
    """LLL with every step on numpy arrays and scalars: rows swapped by fancy
    indexing, mu[k] reduced in place, the Lovasz test on numpy scalars, and
    each changed Gram-Schmidt row recomputed from the rows before it is
    read."""
    b = basis.astype(float).copy()
    n = b.shape[0]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    bstar, mu, norms = np.zeros_like(b), np.zeros((n, n)), np.zeros(n)

    def gram_schmidt(i):
        mu[i, :i] = bstar[:i] @ b[i] / norms[:i]
        bstar[i] = b[i] - mu[i, :i] @ bstar[:i]
        norms[i] = bstar[i] @ bstar[i]

    for i in range(n):
        gram_schmidt(i)
    current, k = n, 1
    while k < n:
        while current <= k:
            gram_schmidt(current)
            current += 1
        reduced = False
        for j in range(k - 1, -1, -1):
            q = round(float(mu[k, j]))
            if q:
                b[k] -= q * b[j]
                u[k] = [uk - q * uj for uk, uj in zip(u[k], u[j])]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
                reduced = True
        if reduced:
            gram_schmidt(k)
            current = k + 1
        if norms[k] >= (LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            u[k - 1], u[k] = u[k], u[k - 1]
            current = k - 1
            k = max(k - 1, 1)
    return b, tuple(tuple(row) for row in u)


# every family input of the lattice benchmark up to dimension 27, and the
# 67 m < 1 polynomials of degrees 3 to 6
LLL_BYTE_IDENTITY_BASES = {
    **{f"multinacci{n}": multinacci(n).to_text() for n in range(9, 28)},
    **{f"truncated_geom{n}": truncated_geom(n).to_text() for n in range(10, 23)},
    **{f"root_power{n}": root_power(n).to_text() for n in range(2, 9)},
    **{
        text: text
        for table in (DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE)
        for text, _ in table
    },
}


@pytest.mark.parametrize(
    "text,basis",
    [
        pytest.param(text, None, id=name)
        for name, text in LLL_BYTE_IDENTITY_BASES.items()
    ]
    + [pytest.param("x^3-x-1", SKEWED_CUBIC, id="skewed_cubic")],
)
def test_lll_bit_identical_to_numpy_form(text, basis):
    # _lll updates mu and B at each swap instead of recomputing Gram-Schmidt
    # rows; the updated floats differ from recomputed ones, but on these
    # bases every rounding and every Lovasz decision is the same, so the
    # reduced rows (each row step is the same IEEE operation) and the
    # transform must be the same bytes as the recomputing reference's
    embedded = _embedded_basis(find_roots(parse_polynomial(text)), basis)
    reduced, transform = _lll(embedded)
    expected, expected_transform = _numpy_lll(embedded)
    assert reduced.tobytes() == expected.tobytes()
    assert transform == expected_transform


@pytest.mark.parametrize(
    "basis", [[[1, 0], [1, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]]
)
def test_lll_rejects_dependent_rows(basis):
    with pytest.raises(ArithmeticError, match="lost positive definiteness"):
        _lll(np.array(basis, dtype=float))


def _box_candidates(basis, radius_sq):
    """Nonzero integer v with |v B|^2 <= radius_sq, by numpy over the whole
    box |v_i| <= sqrt(radius_sq (G^-1)_ii): an oracle that shares no step
    with the Cholesky recursion."""
    inv = np.linalg.inv(basis @ basis.T)
    bounds = [int(math.floor(math.sqrt(radius_sq * d) + 1e-9)) for d in np.diag(inv)]
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in bounds], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    emb = pts @ basis
    vals = np.einsum("ij,ij->i", emb, emb)
    keep = (vals <= radius_sq) & pts.any(axis=1)
    return {tuple(int(c) for c in row) for row in pts[keep]}


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize(
    "text,basis",
    [
        ("x^6+x^2-1", None),
        (multinacci(9).to_text(), None),
        ("x^4+x^2-1", [[1, 0, 0, 0], [3, 1, 0, 0], [-5, 4, 1, 0], [11, -7, 2, 1]]),
    ],
)
def test_fincke_pohst_matches_box_enumeration(text, basis, scale):
    # the candidates within scale * (s+t) of the LLL-reduced lattice, each
    # once, are exactly the box's
    roots = find_roots(parse_polynomial(text))
    reduced, _ = _lll(_embedded_basis(roots, basis))
    radius_sq = scale * (roots.s + roots.t) + RADIUS_SLACK
    found = _fincke_pohst(reduced @ reduced.T, radius_sq)
    assert len(found) == len(set(found))
    assert set(found) == _box_candidates(reduced, radius_sq)


def _mapped_candidates(lat, lll, radius_sq):
    reduced, transform = lll(lat.basis_matrix)
    found = _fincke_pohst(reduced @ reduced.T, radius_sq)
    return sorted(_combine_rows(v, transform) for v in found)


@pytest.mark.parametrize("n", range(23, 41))
def test_drifting_bases_keep_the_reference_candidates(n):
    # from n = 28 the reduced basis differs from the reference's (the
    # certification pass reran LLL), but the lattice vectors within the
    # psi(1) radius, in the caller's coordinates, are the same
    lat = build_embedding(find_roots(multinacci(n)))
    radius_sq = sum(lat.signature) + RADIUS_SLACK
    assert _mapped_candidates(lat, _lll, radius_sq) == _mapped_candidates(
        lat, _numpy_lll, radius_sq
    )


def test_multinacci_twelve_minimum_is_one():
    lat = build_embedding(find_roots(multinacci(12)))
    sv = shortest_vector(lat)
    assert sv.coordinates == (1,) + (0,) * 11
    assert abs(sv.m_value - 1.0) < 1e-9


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# minimizers of the family lattices, frozen from the LLL that computed each
# Gram-Schmidt coefficient by its own dot product and recomputed the row after
# every size-reduction step; multinacci(n) has Gram entries near 4^n
FROZEN_FAMILY_MINIMIZERS = [
    (multinacci, 9, _unit(9, 0), 1, "x-1"),
    (multinacci, 10, _unit(10, 0), 1, "x-1"),
    (multinacci, 11, _unit(11, 0), 1, "x-1"),
    (multinacci, 12, _unit(12, 0), 1, "x-1"),
    (multinacci, 13, (1,) * 12 + (-1,), 13,
     "x^13-x^12+x^11-x^10+x^9-x^8+x^7-x^6+x^5-x^4+x^3-x^2+x+1"),
    (multinacci, 14, _unit(14, 0), 1, "x-1"),
    (multinacci, 15, (1,) * 14 + (-1,), 15,
     "x^15-x^14+x^13-x^12+x^11-x^10+x^9-x^8+x^7-x^6+x^5-x^4+x^3-x^2+x+1"),
    (multinacci, 16, _unit(16, 0), 1, "x-1"),
    (multinacci, 17, (1,) * 16 + (-1,), 17,
     "x^17-x^16+x^15-x^14+x^13-x^12+x^11-x^10+x^9-x^8+x^7-x^6+x^5-x^4+x^3"
     "-x^2+x+1"),
    (multinacci, 18, _unit(18, 0), 1, "x-1"),
    (multinacci, 19, (1,) * 18 + (-1,), 19,
     "x^19-x^18+x^17-x^16+x^15-x^14+x^13-x^12+x^11-x^10+x^9-x^8+x^7-x^6+x^5"
     "-x^4+x^3-x^2+x+1"),
    (multinacci, 20, _unit(20, 0), 1, "x-1"),
    (multinacci, 21, (1,) * 20 + (-1,), 21,
     "x^21-x^20+x^19-x^18+x^17-x^16+x^15-x^14+x^13-x^12+x^11-x^10+x^9-x^8+x^7"
     "-x^6+x^5-x^4+x^3-x^2+x+1"),
    (multinacci, 22, _unit(22, 0), 1, "x-1"),
    (truncated_geom, 9, _unit(9, 0), 1, "x-1"),
    (truncated_geom, 10, _unit(10, 0), 1, "x-1"),
    (truncated_geom, 11, _unit(11, 0), 1, "x-1"),
    (truncated_geom, 12, _unit(12, 0), 1, "x-1"),
    (truncated_geom, 13, _unit(13, 1), 13,
     "x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x-1"),
    (truncated_geom, 14, _unit(14, 0), 1, "x-1"),
    (truncated_geom, 15, _unit(15, 1), 15,
     "x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x-1"),
    (truncated_geom, 16, _unit(16, 0), 1, "x-1"),
    (truncated_geom, 17, _unit(17, 1), 17,
     "x^17+x^16+x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3"
     "+x^2+x-1"),
    (truncated_geom, 18, _unit(18, 0), 1, "x-1"),
    (truncated_geom, 19, _unit(19, 1), 19,
     "x^19+x^18+x^17+x^16+x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5"
     "+x^4+x^3+x^2+x-1"),
    (truncated_geom, 20, _unit(20, 0), 1, "x-1"),
    (truncated_geom, 21, _unit(21, 1), 21,
     "x^21+x^20+x^19+x^18+x^17+x^16+x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7"
     "+x^6+x^5+x^4+x^3+x^2+x-1"),
    (truncated_geom, 22, _unit(22, 0), 1, "x-1"),
]


@pytest.mark.parametrize(
    "family,n,coords,mdeg,minpoly",
    [
        pytest.param(*row, id=f"{row[0].__name__}{row[1]}")
        for row in FROZEN_FAMILY_MINIMIZERS
    ],
)
def test_family_minimizers_frozen(family, n, coords, mdeg, minpoly):
    sv = shortest_vector(build_embedding(find_roots(family(n))))
    assert sv.coordinates == coords
    assert sv.minimizer_degree == mdeg
    assert sv.minimizer_minpoly.to_text() == minpoly


# minima of power bases where the certification pass changes the reduced
# basis, frozen from the LLL that recomputed Gram-Schmidt rows after every
# change: (n, coordinates, squared_length, m)
FROZEN_DRIFT_MINIMA = [
    (28, _unit(28, 0), 15.0, 1.0),
    (30, _unit(30, 0), 16.0, 1.0),
    (40, (1,) * 39 + (-1,), 20.98664558513765, 0.9993640754827453),
]


@pytest.mark.parametrize(
    "n,coords,sq,m",
    [pytest.param(*row, id=f"multinacci{row[0]}") for row in FROZEN_DRIFT_MINIMA],
)
def test_drifting_bases_minima_frozen(n, coords, sq, m):
    sv = shortest_vector(build_embedding(find_roots(multinacci(n))))
    assert sv.coordinates == coords
    assert sv.squared_length == sq
    assert sv.m_value == m


def _min_squared_length(p):
    return shortest_vector(build_embedding(find_roots(p))).squared_length


@pytest.mark.parametrize("n", [15, 17, 19, 21, 23, 25, 29])
def test_ill_conditioned_basis_reports_true_length(n):
    # multinacci(n) and truncated_geom(n) are reciprocal, so their roots
    # generate the same order; the power basis of multinacci(n) has Gram
    # entries near 4^n, where v^T G v once came out negative at n = 29
    d2 = _min_squared_length(multinacci(n))
    reference = _min_squared_length(truncated_geom(n))
    assert d2 > 0
    rel_tol = 1e-8 if n == 29 else 1e-9
    assert abs(d2 - reference) <= rel_tol * reference


# -- exact determinant oracle ---------------------------------------------------------

def _leibniz_det(rows):
    """sum over permutations of sign * product, in Fraction: an oracle that
    shares no step with elimination."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


rational_entry = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 12, 49])),
)


@st.composite
def det_matrices(draw):
    """n x n rational matrices, n <= 5; some with a zero leading column entry
    (a row swap), some with a repeated-multiple row (singular)."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(rational_entry, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["any", "swap", "singular"]))
    if shape == "swap":
        rows[0][0] = Fraction(0)
    elif shape == "singular" and n > 1:
        k = draw(st.integers(1, n - 1))
        rows[k] = [Fraction(-3, 2) * x for x in rows[0]]
    return rows


@settings(max_examples=300)
@given(det_matrices())
def test_exact_det_matches_leibniz(rows):
    assert exact_det(rows) == _leibniz_det(rows)


def test_dimension_caps():
    lat = build_embedding(find_roots(multinacci(9)))
    with pytest.raises(ValueError, match="brute-force cap"):
        brute_force_shortest(lat, 6.0)
    assert ENUMERATION_DIMENSION_CAP == 40
    assert BRUTE_FORCE_DIMENSION_CAP == 8


def test_element_poly_matches_coordinates():
    # element_poly is the minimizer over the power basis, the lattice's own
    sv = shortest_vector(lattice_of("x^6+x^2-1"))
    assert sv.element_poly == (0, 1, 0, 0, 0, 0)
    # and the m value matches the generator's size profile
    from minklat.measures import size_profile

    prof = size_profile(find_roots(parse_polynomial("x^6+x^2-1")))
    assert abs(sv.m_value - prof.m) < 1e-9


# -- minimal polynomial of the minimizer -----------------------------------------------

MINPOLY_FIELDS = [
    parse_polynomial(text)
    for table in (DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE)
    for text, _ in table
] + [multinacci(9)]


def _mul_mod(a, b, p):
    """a * b in Z[x]/(p) over the power basis, p monic."""
    n = p.degree
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        for idx in range(n):
            prod[k - n + idx] -= prod[k] * p.coefficients[idx]
    return prod[:n]


def _evaluate_mod(f, beta, p):
    """f(beta) in Z[x]/(p), by Horner."""
    acc = [0] * p.degree
    for c in reversed(f.coefficients):
        acc = _mul_mod(acc, beta, p)
        acc[0] += c
    return acc


@st.composite
def field_elements(draw):
    p = draw(st.sampled_from(MINPOLY_FIELDS))
    beta = draw(st.lists(st.integers(-3, 3), min_size=p.degree, max_size=p.degree))
    return p, beta


@settings(max_examples=150, deadline=None)
@given(field_elements())
def test_minimal_polynomial_certificate(element):
    # the answer certifies itself: an irreducible primitive f with a positive
    # leading coefficient and f(beta) = 0 is beta's minimal polynomial
    p, beta = element
    degree, f = _minimal_polynomial(beta, p)
    assert f.degree == degree
    assert p.degree % degree == 0
    assert f.content() == 1
    assert f.leading_coefficient > 0
    assert all(c == 0 for c in _evaluate_mod(f, beta, p))
    assert is_irreducible(f)


@pytest.mark.parametrize(
    "c,text", [(0, "x"), (1, "x-1"), (-3, "x+3"), (2, "x-2")]
)
def test_minimal_polynomial_of_constant(c, text):
    p = parse_polynomial("x^5-x^3+x^2+x-1")
    degree, f = _minimal_polynomial([c] + [0] * 4, p)
    assert degree == 1
    assert f.to_text() == text


def test_shortest_vector_leaves_no_reference_cycles():
    # every object of the search is freed by reference counting; a cycle
    # would wait for the cyclic collector
    lattices = [lattice_of("x^6+x^2-1"), build_embedding(find_roots(multinacci(15)))]
    gc.collect()
    gc.disable()
    try:
        for lat in lattices:
            shortest_vector(lat)
        assert gc.collect() == 0
    finally:
        gc.enable()
