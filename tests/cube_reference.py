"""Reference paths over the cube, kept for the tests: a slow evaluation of
a degree-2 polynomial, a test oracle for ``cube.poly_values`` by a
Gray-code walk that shares no arithmetic with the blocked matrix products
it cross-checks; a parity column at explicit rows; and a copying
Walsh-Hadamard transform."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ptffool.cube import fwht_inplace
from ptffool.poly import DegTwoPoly


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a copy of ``values``: see
    ``cube.fwht_inplace``."""
    return fwht_inplace(np.array(values, copy=True))


def parity_column_for_points(points: np.ndarray,
                             subset: Sequence[int]) -> np.ndarray:
    """chi_S at explicit ±1 rows (for spaces that are not a full cube)."""
    sel = np.asarray(points)[:, list(subset)]
    return np.prod(sel.astype(np.int64), axis=1).astype(np.int8)


def poly_values_gray(p: DegTwoPoly) -> np.ndarray:
    """Reference evaluation by a Gray-code walk.

    Each step flips one coordinate and patches the running value through
    the identity p(x with x_i negated) - p(x) = -2 x_i (l_i + 2(u_i -
    A_ii x_i)) where u = A x.  Slow and simple on purpose; used to
    cross-check ``poly_values``.
    """
    n = p.n
    total = 1 << n
    out = np.empty(total, dtype=np.float64)
    x = np.ones(n, dtype=np.float64)
    u = p.quad @ x
    value = p.constant + float(np.sum(p.linear)) + float(np.sum(p.quad))
    out[0] = value
    for step in range(1, total):
        i = (step & -step).bit_length() - 1
        xi = x[i]
        value += -2.0 * xi * (p.linear[i] + 2.0 * (u[i] - p.quad[i, i] * xi))
        u -= 2.0 * xi * p.quad[:, i]
        x[i] = -xi
        gray = step ^ (step >> 1)
        out[gray] = value
    return out
