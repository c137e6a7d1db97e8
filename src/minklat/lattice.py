"""Canonical embedding of an order into R^n and shortest-vector search.

Rows of the basis matrix are psi(b_i) with coordinates: the s real conjugates,
then (Re, Im) per complex pair with no sqrt(2) weighting, which is what makes
|det| = 2^(-t) * sqrt(|disc|) and the squared length of psi(1) equal to s+t.

The enumerator is floating Fincke-Pohst over an LLL-reduced Gram with a small
radius slack; every candidate's form value is recomputed from its integer
coordinates before acceptance so boundary vectors are never lost to drift in
the recursion's partial sums.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .intpoly import IntPolynomial, _poly_mul, discriminant
from .roots import ConjugateSet

ENUMERATION_DIMENSION_CAP = 40
BRUTE_FORCE_DIMENSION_CAP = 8
RADIUS_SLACK = 1e-6
DET_IDENTITY_RTOL = 1e-8
LLL_DELTA = 0.99

ORDER_CAVEAT = (
    "shortest vector and m are computed over the supplied order (default "
    "Z[alpha]), an upper bound for the maximal order's m"
)


@dataclass(frozen=True, eq=False)
class EmbeddedLattice:
    """Full-rank lattice from the canonical embedding of an order basis."""

    conjugates: ConjugateSet
    dimension: int
    signature: Tuple[int, int]
    basis_matrix: np.ndarray
    gram: np.ndarray
    order_disc: Union[int, Fraction]
    # rows express basis elements over the power basis 1, alpha, ..., alpha^(n-1)
    basis_over_power: Tuple[Tuple[Fraction, ...], ...]

    @property
    def determinant(self) -> float:
        sign, logdet = np.linalg.slogdet(self.basis_matrix)
        return float(math.exp(logdet))


@dataclass(frozen=True)
class ShortestVectorResult:
    squared_length: float
    coordinates: Tuple[int, ...]
    element_poly: Tuple[Union[int, Fraction], ...]
    m_value: float
    method: str
    minimizer_degree: int
    minimizer_minpoly: Optional[IntPolynomial]

    def to_json_dict(self) -> dict:
        return {
            "squared_length": self.squared_length,
            "coordinates": list(self.coordinates),
            "element_poly": [str(c) for c in self.element_poly],
            "m": self.m_value,
            "method": self.method,
            "minimizer_degree": self.minimizer_degree,
            "minimizer_minpoly": (
                self.minimizer_minpoly.to_text() if self.minimizer_minpoly else None
            ),
        }


# -- construction ----------------------------------------------------------------

def _embedding_row(roots: ConjugateSet, coeffs: Sequence[Fraction]) -> np.ndarray:
    """psi of the element with the given power-basis coefficients."""
    out = []
    for r in roots.real_roots:
        out.append(float(sum(float(c) * r ** k for k, c in enumerate(coeffs))))
    for z in roots.complex_reps:
        val = sum(complex(c) * z ** k for k, c in enumerate(coeffs))
        out.append(val.real)
        out.append(val.imag)
    return np.array(out)


def _exact_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def build_embedding(
    roots: ConjugateSet,
    basis: Optional[Sequence[Sequence[Union[int, Fraction]]]] = None,
) -> EmbeddedLattice:
    """Embedded lattice of the order spanned by the basis (default Z[alpha]).

    The determinant identity |det| = 2^(-t) sqrt(|disc|) is checked against
    the exact discriminant (scaled through the change of basis) and failure
    is an error, not a warning.
    """
    n = roots.degree
    s, t = roots.s, roots.t
    if basis is None:
        rows_q = tuple(
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
            for i in range(n)
        )
    else:
        if len(basis) != n or any(len(row) != n for row in basis):
            raise ValueError(f"basis must be {n}x{n}")
        rows_q = tuple(tuple(Fraction(x) for x in row) for row in basis)

    change_det = _exact_det(rows_q)
    if change_det == 0:
        raise ValueError("singular basis")

    poly_disc = 1 if n == 1 else discriminant(roots.polynomial)
    order_disc_q = Fraction(poly_disc) * change_det * change_det
    order_disc = (
        int(order_disc_q) if order_disc_q.denominator == 1 else order_disc_q
    )

    mat = np.vstack([_embedding_row(roots, row) for row in rows_q])
    gram = mat @ mat.T
    lat = EmbeddedLattice(
        conjugates=roots,
        dimension=n,
        signature=(s, t),
        basis_matrix=mat,
        gram=gram,
        order_disc=order_disc,
        basis_over_power=rows_q,
    )
    expected = 2.0 ** (-t) * math.sqrt(abs(float(order_disc_q)))
    if not math.isclose(lat.determinant, expected, rel_tol=DET_IDENTITY_RTOL):
        raise ArithmeticError("embedding inconsistent")
    return lat


# -- LLL -------------------------------------------------------------------------

def _gram_schmidt_row(
    b: np.ndarray, bstar: np.ndarray, mu: np.ndarray, norms: np.ndarray, i: int
) -> None:
    """Classical Gram-Schmidt of row i: fills mu[i, :i], bstar[i] and
    norms[i] from b[i] and bstar/norms of rows 0..i-1."""
    v = b[i].copy()
    for j in range(i):
        mu[i, j] = float(np.dot(b[i], bstar[j]) / norms[j])
        v -= mu[i, j] * bstar[j]
    bstar[i] = v
    norms[i] = float(np.dot(v, v))
    if norms[i] <= 0.0:
        raise ArithmeticError("lattice basis lost positive definiteness")


def _lll(basis: np.ndarray):
    """LLL reduction; returns (reduced basis, integer unimodular transform)."""
    b = basis.astype(float).copy()
    n = b.shape[0]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    bstar = np.zeros_like(b)
    mu = np.zeros((n, n))
    norms = np.zeros(n)
    for i in range(n):
        _gram_schmidt_row(b, bstar, mu, norms, i)
    # row i's Gram-Schmidt data reads only rows 0..i of b, so a change to row
    # k leaves rows below k current; rows below `current` are up to date, and
    # each stale row is recomputed from its prefix when k first reaches it
    current = n
    k = 1
    while k < n:
        while current <= k:
            _gram_schmidt_row(b, bstar, mu, norms, current)
            current += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[k] -= q * b[j]
                u[k] = [uk - q * uj for uk, uj in zip(u[k], u[j])]
                _gram_schmidt_row(b, bstar, mu, norms, k)
                current = k + 1
        if norms[k] >= (LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            u[k - 1], u[k] = u[k], u[k - 1]
            current = k - 1
            k = max(k - 1, 1)
    return b, tuple(tuple(row) for row in u)


def _combine_rows(
    coeffs: Sequence[int], rows: Sequence[Sequence[Union[int, Fraction]]]
) -> Tuple[Union[int, Fraction], ...]:
    """sum_i coeffs[i] * rows[i], exactly: int rows give ints, Fraction rows
    give Fractions (coeffs must not be all zero)."""
    acc = [0] * len(rows[0])
    for coef, row in zip(coeffs, rows):
        if coef:
            for idx, x in enumerate(row):
                acc[idx] += coef * x
    return tuple(acc)


def lll_reduce(
    lat: EmbeddedLattice,
) -> Tuple[np.ndarray, Tuple[Tuple[int, ...], ...]]:
    """delta=0.99 LLL reduction of the lattice's basis rows; returns the
    reduced rows and the integer unimodular transform U with
    U @ lat.basis_matrix equal to them up to rounding.
    """
    reduced, u = _lll(lat.basis_matrix)
    try:
        np.linalg.cholesky(reduced @ reduced.T)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("lattice basis lost positive definiteness") from exc
    return reduced, u


# -- minimizer bookkeeping ----------------------------------------------------------

def _multiply_mod(
    vec: Sequence[Fraction], beta: Sequence[Fraction], p: IntPolynomial
) -> List[Fraction]:
    """(vec * beta) mod p over the power basis; p monic."""
    n = p.degree
    prod = _poly_mul(vec, beta, Fraction(0))
    # reduce: x^k = -(lower coefficients of p) for k >= n
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for idx in range(n):
                prod[k - n + idx] -= c * p.coefficients[idx]
    return prod[:n]


def _minimal_polynomial(
    power_coords: Sequence[Fraction], p: IntPolynomial
) -> Tuple[int, Optional[IntPolynomial]]:
    """Exact degree over Q and primitive minimal polynomial of the element
    given by power-basis coordinates in Q[x]/(p).
    """
    n = p.degree
    beta = [Fraction(c) for c in power_coords]
    # echelon rows: (vector, combination over beta powers)
    echelon: List[Tuple[List[Fraction], List[Fraction]]] = []
    power = [Fraction(0)] * n
    power[0] = Fraction(1)
    for k in range(n + 1):
        vec = list(power)
        combo = [Fraction(0)] * (n + 1)
        combo[k] = Fraction(1)
        for evec, ecombo in echelon:
            pivot = next((i for i, x in enumerate(evec) if x), None)
            if pivot is not None and vec[pivot]:
                f = vec[pivot] / evec[pivot]
                for i in range(n):
                    vec[i] -= f * evec[i]
                for i in range(n + 1):
                    combo[i] -= f * ecombo[i]
        if all(x == 0 for x in vec):
            # monic dependency at degree k
            lead = combo[k]
            monic = [c / lead for c in combo[: k + 1]]
            denom = 1
            for c in monic:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
            ints = [int(c * denom) for c in monic]
            return k, IntPolynomial(ints).normalized()
        echelon.append((vec, combo))
        power = _multiply_mod(power, beta, p)
    raise RuntimeError("no dependency found within the field degree")


def _canonical_sign(v: Tuple[int, ...]) -> Tuple[int, ...]:
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-x for x in v)
    return v


def _squared_length(basis: np.ndarray, v: Sequence[int]) -> float:
    # |v B|^2 from the embedded vector itself: v^T G v on the Gram matrix of
    # an ill-conditioned basis can lose every digit to cancellation
    vec = np.array(v, dtype=float) @ basis
    return float(vec @ vec)


def _pick_minimizer(
    basis: np.ndarray, candidates: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[int, ...], float]:
    """Shortest candidate; ties resolved to the lexicographically smallest
    sign-normalized coordinate vector.
    """
    best = None
    best_len = math.inf
    for v in candidates:
        val = _squared_length(basis, v)
        if val < best_len - 1e-9:
            best, best_len = _canonical_sign(v), val
        elif abs(val - best_len) <= 1e-9:
            cand = _canonical_sign(v)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise RuntimeError("radius search empty")
    return best, _squared_length(basis, best)


def _result_from_coords(
    lat: EmbeddedLattice, coords: Tuple[int, ...], sq_len: float, method: str
) -> ShortestVectorResult:
    s, t = lat.signature
    power = _combine_rows(coords, lat.basis_over_power)
    degree, minpoly = _minimal_polynomial(power, lat.conjugates.polynomial)
    element = tuple(int(c) if c.denominator == 1 else c for c in power)
    return ShortestVectorResult(
        squared_length=sq_len,
        coordinates=coords,
        element_poly=element,
        m_value=sq_len / (s + t),
        method=method,
        minimizer_degree=degree,
        minimizer_minpoly=minpoly,
    )


# -- enumeration ---------------------------------------------------------------------

def _fincke_pohst(gram: np.ndarray, radius_sq: float) -> List[Tuple[int, ...]]:
    n = gram.shape[0]
    lower = np.linalg.cholesky(gram)
    r = lower.T
    q = np.diag(r) ** 2
    mu = r / np.diag(r)[:, None]
    found: List[Tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, remaining: float):
        if i < 0:
            if any(x):
                found.append(tuple(x))
            return
        center = -sum(mu[i, j] * x[j] for j in range(i + 1, n))
        if remaining < 0:
            return
        half = math.sqrt(remaining / q[i])
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        for xi in range(lo, hi + 1):
            x[i] = xi
            used = q[i] * (xi - center) ** 2
            if used <= remaining + 1e-12:
                descend(i - 1, remaining - used)
        x[i] = 0

    descend(n - 1, radius_sq)
    return found


def shortest_vector(lat: EmbeddedLattice) -> ShortestVectorResult:
    """Global minimizer of the order's lattice, by exact-radius enumeration.

    psi(1) always has squared length s+t, so the search radius (s+t) plus a
    small slack is guaranteed nonempty for any order containing 1.
    """
    if lat.dimension > ENUMERATION_DIMENSION_CAP:
        raise ValueError(
            f"dimension {lat.dimension} exceeds enumeration cap "
            f"{ENUMERATION_DIMENSION_CAP}"
        )
    s, t = lat.signature
    radius_sq = (s + t) + RADIUS_SLACK
    reduced, transform = lll_reduce(lat)
    raw = _fincke_pohst(reduced @ reduced.T, radius_sq)
    if not raw:
        raise RuntimeError("radius search empty")
    # map back to the caller's basis before the tie-break so the canonical
    # choice is over original coordinates
    mapped = [_combine_rows(v, transform) for v in raw]
    coords, sq_len = _pick_minimizer(lat.basis_matrix, mapped)
    result = _result_from_coords(lat, coords, sq_len, "enumeration")
    if result.m_value > 1.0 + 1e-9:
        raise RuntimeError("minimum exceeds the psi(1) witness; internal error")
    return result


def brute_force_shortest(
    lat: EmbeddedLattice, radius_sq: float
) -> ShortestVectorResult:
    """Exhaustive integer-box oracle for small dimensions.

    Box bounds: any v with v^T G v <= r^2 has |v_i| <= sqrt(r^2 (G^-1)_ii).
    """
    if lat.dimension > BRUTE_FORCE_DIMENSION_CAP:
        raise ValueError(
            f"dimension {lat.dimension} exceeds brute-force cap "
            f"{BRUTE_FORCE_DIMENSION_CAP}"
        )
    n = lat.dimension
    inv = np.linalg.inv(lat.gram)
    bounds = [int(math.floor(math.sqrt(radius_sq * inv[i, i]) + 1e-9)) for i in range(n)]
    grids = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]

    # vectorize the trailing dimensions, loop the leading ones
    split = n
    inner_size = 1
    for i in range(n - 1, -1, -1):
        nxt = inner_size * len(grids[i])
        if nxt > 2_000_000:
            break
        inner_size = nxt
        split = i
    outer_grids = grids[:split]
    inner = (
        np.stack(np.meshgrid(*grids[split:], indexing="ij"), axis=-1).reshape(-1, n - split)
        if split < n
        else np.zeros((1, 0), dtype=np.int64)
    )
    best_val = math.inf
    best_list: List[Tuple[int, ...]] = []

    outer_iter = itertools.product(*[g.tolist() for g in outer_grids]) if split else [()]
    for head in outer_iter:
        pts = np.empty((inner.shape[0], n), dtype=np.int64)
        if split:
            pts[:, :split] = np.array(head, dtype=np.int64)
        pts[:, split:] = inner
        emb = pts.astype(float) @ lat.basis_matrix
        vals = np.einsum("ij,ij->i", emb, emb)
        nonzero = np.any(pts != 0, axis=1)
        ok = nonzero & (vals <= radius_sq + 1e-9)
        if not np.any(ok):
            continue
        sel_vals = vals[ok]
        sel_pts = pts[ok]
        local_min = float(sel_vals.min())
        if local_min < best_val - 1e-9:
            best_val = local_min
            best_list = []
        keep = sel_vals <= best_val + 1e-9
        best_list.extend(tuple(int(c) for c in row) for row in sel_pts[keep])
    if not best_list:
        raise RuntimeError("radius search empty")
    coords, sq_len = _pick_minimizer(lat.basis_matrix, best_list)
    return _result_from_coords(lat, coords, sq_len, "brute_force")
