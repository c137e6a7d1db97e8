"""Oracles for the lattice tests.

An exhaustive integer-box shortest-vector search for small lattices: it
shares no step with LLL or the Fincke-Pohst recursion, so the enumerator's
minima can be checked against it up to dimension BRUTE_FORCE_DIMENSION_CAP.
An exact determinant of integer or rational rows, which checks that LLL's
transform is unimodular.
"""
import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from minklat.lattice import (
    EmbeddedLattice,
    ShortestVectorResult,
    _pick_minimizer,
    _result_from_coords,
)

BRUTE_FORCE_DIMENSION_CAP = 8


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
    inv = np.linalg.inv(lat.basis_matrix @ lat.basis_matrix.T)
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


def exact_det(rows: Sequence[Sequence[Union[int, Fraction]]]) -> Fraction:
    """Exact determinant of int or Fraction rows: fraction-free (Bareiss)
    elimination on the rows times the lcm d of their denominators, over d^n."""
    n = len(rows)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * p - a[r][col] * a[col][c]) // prev
        prev = p
    return Fraction(sign * prev, d ** n)
