"""Canonical embedding of Z[alpha] into R^n and shortest-vector search.

Row k of the basis matrix is psi(alpha^k) with coordinates: the s real
conjugates, then (Re, Im) per complex pair with no sqrt(2) weighting, which is
what makes |det| = 2^(-t) * sqrt(|disc|) and the squared length of psi(1)
equal to s+t. The rows cost O(n^2) in all: one power per conjugate and entry.

LLL is floating-point. The rows are a Python list of arrays; the
Gram-Schmidt data is computed from them once, each row by two matrix-vector
products, and then kept as Python floats that size reduction and each swap
update in O(n) (Cohen, Alg. 2.6.3). Updated data drifts from the rows' own
on ill-conditioned power bases, so when a pass ends LLL reruns from data
computed fresh from the rows, and returns only after a pass over such data
that changes nothing: the LLL conditions hold on the returned rows' own
Gram-Schmidt data. The enumerator is floating Fincke-Pohst over the
LLL-reduced Gram, built and Cholesky-factored once, with a small radius
slack; its recursion reads Python floats. Every candidate's form value is
recomputed from its integer coordinates before acceptance so boundary vectors
are never lost to drift in the recursion's partial sums. The vectors here
have 2 to 40 entries, where numpy's per-call cost outweighs the arithmetic;
each Python-float step is the same IEEE operation, in the same order, as the
numpy form it replaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .intpoly import IntPolynomial, _poly_mul, discriminant
from .roots import ConjugateSet

ENUMERATION_DIMENSION_CAP = 40
RADIUS_SLACK = 1e-6
DET_IDENTITY_RTOL = 1e-8
LLL_DELTA = 0.99

ORDER_CAVEAT = (
    "shortest vector and m are computed over Z[alpha], an upper bound for "
    "the maximal order's m"
)


@dataclass(frozen=True, eq=False)
class EmbeddedLattice:
    """Full-rank lattice from the canonical embedding of Z[alpha]'s power basis."""

    conjugates: ConjugateSet
    dimension: int
    signature: Tuple[int, int]
    basis_matrix: np.ndarray
    order_disc: int

    @property
    def determinant(self) -> float:
        sign, logdet = np.linalg.slogdet(self.basis_matrix)
        return float(math.exp(logdet))


@dataclass(frozen=True)
class ShortestVectorResult:
    squared_length: float
    coordinates: Tuple[int, ...]
    # the minimizer over the power basis: always equal to coordinates
    element_poly: Tuple[int, ...]
    m_value: float
    method: str
    minimizer_degree: int
    minimizer_minpoly: Optional[IntPolynomial]


# -- construction ----------------------------------------------------------------

def _embedding_matrix(roots: ConjugateSet) -> np.ndarray:
    """psi(alpha^k) for k = 0..n-1, one row each. Adding 0.0 turns -0.0 into
    0.0 and leaves every other float alone, so each entry is the float that
    summing the element's one term from 0 gives."""
    rows = []
    for k in range(roots.degree):
        row = [r ** k + 0.0 for r in roots.real_roots]
        for z in roots.complex_reps:
            w = z ** k
            row += (w.real + 0.0, w.imag + 0.0)
        rows.append(row)
    return np.array(rows)


def build_embedding(roots: ConjugateSet) -> EmbeddedLattice:
    """Embedded lattice of Z[alpha].

    The determinant identity |det| = 2^(-t) sqrt(|disc|) is checked against
    the exact discriminant of the polynomial, and failure is an error, not a
    warning.
    """
    n = roots.degree
    s, t = roots.s, roots.t
    order_disc = 1 if n == 1 else discriminant(roots.polynomial)
    lat = EmbeddedLattice(
        conjugates=roots,
        dimension=n,
        signature=(s, t),
        basis_matrix=_embedding_matrix(roots),
        order_disc=order_disc,
    )
    expected = 2.0 ** (-t) * math.sqrt(abs(order_disc))
    if not math.isclose(lat.determinant, expected, rel_tol=DET_IDENTITY_RTOL):
        raise ArithmeticError("embedding inconsistent")
    return lat


# -- LLL -------------------------------------------------------------------------

def _gram_schmidt_row(
    b: List[np.ndarray], bstar: np.ndarray, mu: np.ndarray, norms: np.ndarray, i: int
) -> None:
    """Classical Gram-Schmidt of row i: fills mu[i, :i], bstar[i] and
    norms[i] from b[i] and bstar/norms of rows 0..i-1, by two matrix-vector
    products (classical, so mu reads b[i], not the running remainder)."""
    mu[i, :i] = bstar[:i] @ b[i] / norms[:i]
    bstar[i] = b[i] - mu[i, :i] @ bstar[:i]
    norms[i] = bstar[i] @ bstar[i]
    if norms.item(i) <= 0.0:
        raise ArithmeticError("lattice basis lost positive definiteness")


def _lll(basis: np.ndarray):
    """LLL reduction; returns (reduced basis, integer unimodular transform).

    Each pass starts from Gram-Schmidt data computed fresh from the rows and
    keeps it current by updates: size reduction subtracts q * mu_j from mu_k,
    and a swap updates B_{k-1}, B_k and mu_{k,k-1}, exchanges the two mu
    prefixes and rotates columns k-1 and k of the rows below (Cohen,
    Alg. 2.6.3). The first pass that changes nothing certifies the rows.
    """
    # the rows are a list of arrays, so a swap exchanges two references
    # instead of copying rows through fancy indexing; mu and B are Python
    # floats, which round() and the updates read far faster than numpy
    # scalars, and x - q*y on floats is the same IEEE step as on numpy
    b = list(basis.astype(float))
    n = len(b)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    bstar = np.zeros((n, n))
    mu_fresh = np.zeros((n, n))
    norms_fresh = np.zeros(n)
    changed = True
    while changed:
        for i in range(n):
            _gram_schmidt_row(b, bstar, mu_fresh, norms_fresh, i)
        mu = mu_fresh.tolist()
        norms = norms_fresh.tolist()
        changed = False
        k = 1
        while k < n:
            mu_k = mu[k]
            for j in range(k - 1, -1, -1):
                # round(x) is 0 exactly when |x| <= 1/2 (halves round to even)
                if -0.5 <= mu_k[j] <= 0.5:
                    continue
                q = round(mu_k[j])
                b[k] -= q * b[j]
                u[k] = [uk - q * uj for uk, uj in zip(u[k], u[j])]
                mu_k[:j] = [x - q * y for x, y in zip(mu_k, mu[j][:j])]
                mu_k[j] -= q
                changed = True
            m = mu_k[k - 1]
            if norms[k] >= (LLL_DELTA - m ** 2) * norms[k - 1]:
                k += 1
                continue
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            # entries on and right of the diagonal are never read, so
            # exchanging the two lists exchanges the prefixes
            mu[k - 1], mu[k] = mu_k, mu[k - 1]
            prev = norms[k] + m ** 2 * norms[k - 1]  # the new B_{k-1}
            m_new = m * norms[k - 1] / prev
            norms[k] = norms[k - 1] * norms[k] / prev
            norms[k - 1] = prev
            if norms[k] <= 0.0:
                raise ArithmeticError("lattice basis lost positive definiteness")
            mu[k][k - 1] = m_new
            for mu_i in mu[k + 1:]:
                t = mu_i[k]
                mu_i[k] = mu_i[k - 1] - m * t
                mu_i[k - 1] = t + m_new * mu_i[k]
            changed = True
            k = max(k - 1, 1)
    return np.array(b), tuple(tuple(row) for row in u)


def _combine_rows(
    coeffs: Sequence[int], rows: Sequence[Sequence[int]]
) -> Tuple[int, ...]:
    """sum_i coeffs[i] * rows[i], exactly (coeffs must not be all zero)."""
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

    Swaps update the Gram-Schmidt data in O(n) instead of recomputing it;
    the result is certified by a final pass over Gram-Schmidt data computed
    fresh from the returned rows, on which size reduction and the Lovasz
    test change nothing. Every Gram-Schmidt norm, updated or fresh, is
    positive, else ArithmeticError.
    """
    return _lll(lat.basis_matrix)


# -- minimizer bookkeeping ----------------------------------------------------------

def _minimal_polynomial(
    gamma: Sequence[int], p: IntPolynomial
) -> Tuple[int, Optional[IntPolynomial]]:
    """Exact degree over Q and primitive minimal polynomial of the element
    of Z[x]/(p) with power-basis coordinates gamma; p is monic, so the powers
    of gamma have integer coordinates."""
    n = p.degree
    # echelon rows (pivot, gamma^k augmented by its combination of gamma
    # powers); elimination cross-multiplies by the pivots, divides by the gcd
    echelon: List[Tuple[int, List[int]]] = []
    power = [1] + [0] * (n - 1)
    for k in range(n + 1):
        row = power + [0] * (n + 1)
        row[n + k] = 1
        for pivot, erow in echelon:
            f = row[pivot]
            if f:
                e = erow[pivot]
                row = [e * x - f * y for x, y in zip(row, erow)]
                g = math.gcd(*row)
                row = [x // g for x in row]
        pivot = next((i for i in range(n) if row[i]), None)
        if pivot is None:
            # row[n + k] != 0: no echelon row involves gamma^k
            combo = row[n : n + k + 1]
            return k, IntPolynomial(combo).normalized()
        echelon.append((pivot, row))
        # power * gamma mod p, with x^m = -(lower coefficients of p) for m >= n
        power = _poly_mul(power, gamma)
        for m in range(len(power) - 1, n - 1, -1):
            if power[m]:
                for idx in range(n):
                    power[m - n + idx] -= power[m] * p.coefficients[idx]
        power = power[:n]
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
    degree, minpoly = _minimal_polynomial(coords, lat.conjugates.polynomial)
    return ShortestVectorResult(
        squared_length=sq_len,
        coordinates=coords,
        element_poly=coords,
        m_value=sq_len / (s + t),
        method=method,
        minimizer_degree=degree,
        minimizer_minpoly=minpoly,
    )


# -- enumeration ---------------------------------------------------------------------

def _fincke_pohst(gram: np.ndarray, radius_sq: float) -> List[Tuple[int, ...]]:
    n = gram.shape[0]
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("lattice basis lost positive definiteness") from exc
    r = lower.T
    q = np.diag(r) ** 2
    mu = r / np.diag(r)[:, None]
    found: List[Tuple[int, ...]] = []
    # the recursion reads Python floats, far faster than numpy scalars
    _descend(mu.tolist(), q.tolist(), [0] * n, found, n - 1, radius_sq)
    return found


def _descend(
    mu: List[List[float]],
    q: List[float],
    x: List[int],
    found: List[Tuple[int, ...]],
    i: int,
    remaining: float,
) -> None:
    # Fincke-Pohst below level i; a module function, not a closure, so a
    # search leaves no reference cycle behind
    if i < 0:
        if any(x):
            found.append(tuple(x))
        return
    mu_i = mu[i]
    center = -sum(mu_i[j] * x[j] for j in range(i + 1, len(x)))
    if remaining < 0:
        return
    q_i = q[i]
    half = math.sqrt(remaining / q_i)
    lo = math.ceil(center - half - 1e-12)
    hi = math.floor(center + half + 1e-12)
    for xi in range(lo, hi + 1):
        x[i] = xi
        used = q_i * (xi - center) ** 2
        if used <= remaining + 1e-12:
            _descend(mu, q, x, found, i - 1, remaining - used)
    x[i] = 0


def shortest_vector(lat: EmbeddedLattice) -> ShortestVectorResult:
    """Global minimizer of Z[alpha]'s lattice, by exact-radius enumeration.

    psi(1) has squared length s+t, so the search radius (s+t) plus a small
    slack always holds a nonzero vector.
    """
    if lat.dimension > ENUMERATION_DIMENSION_CAP:
        raise ValueError(
            f"dimension {lat.dimension} exceeds enumeration cap "
            f"{ENUMERATION_DIMENSION_CAP}"
        )
    s, t = lat.signature
    radius_sq = (s + t) + RADIUS_SLACK
    reduced, transform = lll_reduce(lat)
    # the reduced Gram is built once, here, and factored once, in _fincke_pohst
    raw = _fincke_pohst(reduced @ reduced.T, radius_sq)
    # map back to the power basis before the tie-break so the canonical
    # choice is over its coordinates; an empty list raises in _pick_minimizer
    mapped = [_combine_rows(v, transform) for v in raw]
    coords, sq_len = _pick_minimizer(lat.basis_matrix, mapped)
    result = _result_from_coords(lat, coords, sq_len, "enumeration")
    if result.m_value > 1.0 + 1e-9:
        raise RuntimeError("minimum exceeds the psi(1) witness; internal error")
    return result

