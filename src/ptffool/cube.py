"""Exhaustive enumeration over the sign cube {-1,1}^n.

Row order is fixed once and shared by every consumer: row r encodes x_i
= +1 when bit i of r is clear and -1 when it is set.  That matches the
bitmask layout the exact verifier uses, so parity columns can be built
straight from popcounts and ``fwht`` returns every parity sum of a
function on the cube at once (and, since chi_S(x) = chi_x(S), a function's
values from its Fourier coefficients).

Two evaluation paths exist for degree-2 polynomials.  The blocked path
is the production one (bit extraction plus matrix products on slabs of
rows); the Gray-code walk recomputes each value from its predecessor
with O(n) work per step and serves as an independent cross-check.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from . import config
from .errors import ResourceBudgetError
from .gf2 import popcount_u64
from .poly import DegTwoPoly

_BLOCK = 1 << 16


def _check_n(n: int) -> None:
    if n > config.ENUM_MAX_N:
        raise ResourceBudgetError(
            f"full enumeration of n={n} exceeds the 2^{config.ENUM_MAX_N} cap")


def signs_for_indices(indices: np.ndarray, n: int) -> np.ndarray:
    """Sign rows for the given point indices, int8, shape (len, n)."""
    indices = np.asarray(indices, dtype=np.uint64)
    bits = (indices[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def all_points(n: int) -> np.ndarray:
    """Every point of the cube in row order, shape (2^n, n), int8."""
    _check_n(n)
    return signs_for_indices(np.arange(1 << n, dtype=np.uint64), n)


def iter_blocks(n: int, block: int = _BLOCK) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, sign_block) covering the cube in row order."""
    _check_n(n)
    total = 1 << n
    for start in range(0, total, block):
        stop = min(start + block, total)
        yield start, signs_for_indices(
            np.arange(start, stop, dtype=np.uint64), n)


def poly_values(p: DegTwoPoly, block: int = _BLOCK) -> np.ndarray:
    """p evaluated at every cube point, in row order."""
    _check_n(p.n)
    total = 1 << p.n
    out = np.empty(total, dtype=np.float64)
    for start, signs in iter_blocks(p.n, block):
        X = signs.astype(np.float64)
        vals = p.constant + X @ p.linear + np.sum((X @ p.quad) * X, axis=1)
        out[start:start + X.shape[0]] = vals
    return out


def poly_values_gray(p: DegTwoPoly) -> np.ndarray:
    """Reference evaluation by a Gray-code walk.

    Each step flips one coordinate and patches the running value through
    the identity p(x with x_i negated) - p(x) = -2 x_i (l_i + 2(u_i -
    A_ii x_i)) where u = A x.  Slow and simple on purpose; used to
    cross-check the blocked path.
    """
    _check_n(p.n)
    n = p.n
    total = 1 << n
    out = np.empty(total, dtype=np.float64)
    x = np.ones(n, dtype=np.float64)
    u = p.quad @ x
    value = p.evaluate(x)
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


def subsets_up_to(n: int, k: int) -> list[tuple[int, ...]]:
    """All nonempty subsets of {0..n-1} of size at most k, size-major."""
    out: list[tuple[int, ...]] = []
    for size in range(1, min(k, n) + 1):
        out.extend(combinations(range(n), size))
    return out


def subset_mask(subset: Sequence[int]) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


def parity_column(n: int, subset: Sequence[int]) -> np.ndarray:
    """chi_S over the cube in row order: the product of the subset's
    coordinates at each point, int8 ±1."""
    _check_n(n)
    indices = np.arange(1 << n, dtype=np.uint64)
    odd = popcount_u64(indices & np.uint64(subset_mask(subset))) & 1
    return (1 - 2 * odd.astype(np.int8)).astype(np.int8)


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a copy of ``values``: see :func:`fwht_inplace`."""
    return fwht_inplace(np.array(values, copy=True))


def fwht_inplace(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform in row order, overwriting and returning
    ``values``: out[S] = sum_x values[x] chi_S(x).

    Unnormalized, so applying it twice multiplies by 2^n.  The butterflies
    only add, subtract and double, with no temporary: int64 input stays
    exact while the sum of |values| fits (an intermediate -2b may wrap, but
    wrapping arithmetic is exact modulo 2^64 and every result fits), and
    object arrays of Python ints are always exact.
    """
    size = values.shape[0]
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    half = 1
    while half < size:
        pairs = values.reshape(-1, 2, half)
        pairs[:, 0] += pairs[:, 1]          # a + b
        pairs[:, 1] *= -2
        pairs[:, 1] += pairs[:, 0]          # a + b - 2b = a - b
        half *= 2
    return values


def parity_column_for_points(points: np.ndarray,
                             subset: Sequence[int]) -> np.ndarray:
    """chi_S at explicit ±1 rows (for spaces that are not a full cube)."""
    sel = np.asarray(points)[:, list(subset)]
    return np.prod(sel.astype(np.int64), axis=1).astype(np.int8)
