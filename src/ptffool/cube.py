"""Exhaustive enumeration over the sign cube {-1,1}^n.

Row order is fixed once and shared by every consumer: row r encodes x_i
= +1 when bit i of r is clear and -1 when it is set.  That matches the
bitmask layout the exact verifier uses, so parity columns can be built
straight from popcounts and ``fwht_inplace`` returns every parity sum of a
function on the cube at once (and, since chi_S(x) = chi_x(S), a function's
values from its Fourier coefficients).

``poly_values`` evaluates a degree-2 polynomial at every point with the
package's one float evaluator, ``DegTwoPoly.evaluate_many``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from . import config
from .errors import ResourceBudgetError
from .gf2 import popcount_u64
from .poly import DegTwoPoly


def _check_n(n: int) -> None:
    if n > config.ENUM_MAX_N:
        raise ResourceBudgetError(
            f"full enumeration of n={n} exceeds the 2^{config.ENUM_MAX_N} cap")


def signs_for_indices(indices: np.ndarray, n: int) -> np.ndarray:
    """Sign rows for the given point indices, int8, shape (len, n)."""
    octets = np.ascontiguousarray(indices, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, count=n, bitorder="little").view(np.int8)
    bits *= -2
    bits += 1
    return bits


def all_points(n: int) -> np.ndarray:
    """Every point of the cube in row order, shape (2^n, n), int8."""
    _check_n(n)
    return signs_for_indices(np.arange(1 << n, dtype=np.uint64), n)


def poly_values(p: DegTwoPoly) -> np.ndarray:
    """p evaluated in floats at every cube point, in row order."""
    return p.evaluate_many(all_points(p.n))


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
