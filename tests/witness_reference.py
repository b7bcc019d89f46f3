"""The Fraction witness repair that ``fooling._repair_witness`` replaced,
kept as the small-instance oracle: rows picked by Gram-Schmidt in float,
the square system solved by Fraction Gauss-Jordan, and every row of the
full system checked with Fraction products.  Cubic in Fraction operations,
so only for small supports."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from ptffool import config, cube
from ptffool.spaces import SampleSpace


def bareiss_solve(M: list[list[int]], rhs: list[Fraction]
                  ) -> Optional[list[Fraction]]:
    """Exact solve of a square integer system by Fraction Gauss-Jordan
    elimination; None if singular."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = A[col][col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                factor = A[r][col] / inv
                A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def repair_witness(side) -> Optional[SampleSpace]:
    """Exact-rational repair of an LP side's optimal vertex, or None.

    Free columns of a rank-deficient support are pinned to
    ``Fraction(w).limit_denominator(2^32)`` of their float weights.
    """
    w = side.weights
    support = np.nonzero(w > config.WITNESS_SUPPORT_TOL)[0]
    if support.size == 0 or support.size > config.WITNESS_REPAIR_MAX_SUPPORT:
        return None
    cols = support.size
    rows_int: list[list[int]] = [[1] * cols]
    for subset in side.subsets:
        chi = cube.parity_column(side.n, subset)
        rows_int.append([int(chi[j]) for j in support])
    rhs_full = [Fraction(1)] + [Fraction(0)] * len(side.subsets)

    M = np.array(rows_int, dtype=np.float64)
    chosen: list[int] = []
    basis: list[np.ndarray] = []
    for r in range(M.shape[0]):
        v = M[r].copy()
        for bvec in basis:
            v -= (v @ bvec) * bvec
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
            chosen.append(r)
        if len(chosen) == cols:
            break

    pivot_rows = [rows_int[r] for r in chosen]
    pivot_rhs = [rhs_full[r] for r in chosen]
    rank = len(chosen)
    if rank < cols:
        keep = cols - rank
        order = np.argsort(w[support])
        pinned = set(int(i) for i in order[:keep])
        pin_vals = {j: Fraction(float(w[support[j]])).limit_denominator(config.CERT_DENOMINATOR)
                    for j in pinned}
        free = [j for j in range(cols) if j not in pinned]
        sq = [[row[j] for j in free] for row in pivot_rows]
        adj = [pivot_rhs[i]
               - sum(pin_vals[j] * pivot_rows[i][j] for j in pinned)
               for i in range(rank)]
        sol = bareiss_solve(sq, adj)
        if sol is None:
            return None
        full = [Fraction(0)] * cols
        for j, v in zip(free, sol):
            full[j] = v
        for j, v in pin_vals.items():
            full[j] = v
    else:
        sol = bareiss_solve(pivot_rows, pivot_rhs)
        if sol is None:
            return None
        full = sol

    if any(v < 0 for v in full):
        return None
    for row, target in zip(rows_int, rhs_full):
        if sum(c * v for c, v in zip(row, full)) != target:
            return None

    pts = cube.signs_for_indices(support.astype(np.uint64), side.n)
    return SampleSpace(n=side.n, k_claimed=side.k, points=pts,
                       weights=list(full), method="lp_witness")
