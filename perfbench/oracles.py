"""Independent checks for the benchmark's outputs.

Nothing here imports ptffool: every check recomputes its answer from
first principles (integer Walsh-Hadamard transforms, exact integer
polynomial values, exact rational sums), so a defect in the package
cannot hide behind the same defect in its checker.

Cube convention: point index ``idx`` has x_i = -1 exactly when bit i of
``idx`` is set, and the Walsh-Hadamard coefficient at mask S is
sum_x f(x) * prod_{i in S} x_i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

CERT_DENOMINATOR = 2 ** 32


class CheckError(AssertionError):
    """An output of the program disagreed with the benchmark's oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --------------------------------------------------------------------------
# Walsh-Hadamard transform and k-wise independence


def fwht(values) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a length-2^n vector.

    Integer input stays exact: int64 when the magnitudes cannot
    overflow, Python ints (object dtype) otherwise.
    """
    a = np.asarray(values)
    size = a.shape[0]
    require(size & (size - 1) == 0, "transform length must be a power of two")
    if a.dtype != object and float(np.abs(a.astype(np.float64)).sum()) >= 2.0 ** 61:
        a = a.astype(object)
    a = a.copy()
    h = 1
    while h < size:
        blocks = a.reshape(-1, 2, h)
        lo = blocks[:, 0, :].copy()
        hi = blocks[:, 1, :].copy()
        blocks[:, 0, :] = lo + hi
        blocks[:, 1, :] = lo - hi
        h *= 2
    return a


def mask_weights(n: int) -> np.ndarray:
    """Number of set bits of every mask 0..2^n-1."""
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        out += (masks >> i) & 1
    return out


def point_indices(points: np.ndarray) -> np.ndarray:
    """Cube index of every ±1 row."""
    bits = (np.asarray(points) < 0).astype(np.int64)
    return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


def cube_points(n: int) -> np.ndarray:
    """All 2^n points in index order, int8 ±1, shape (2^n, n)."""
    idx = np.arange(1 << n, dtype=np.int64)[:, None]
    return (1 - 2 * ((idx >> np.arange(n, dtype=np.int64)) & 1)).astype(np.int8)


def biased_masks(points: np.ndarray, k: int,
                 weights: Optional[Sequence[Fraction]] = None) -> list[int]:
    """Masks of weight 1..k whose parity has nonzero bias.

    The histogram of the (weighted) points is transformed once; a space
    is k-wise independent exactly when the returned list is empty.
    """
    n = points.shape[1]
    idx = point_indices(points)
    if weights is None:
        hist = np.bincount(idx, minlength=1 << n).astype(np.int64)
    else:
        den = math.lcm(*(w.denominator for w in weights))
        hist = np.zeros(1 << n, dtype=object)
        hist[:] = 0
        for i, w in zip(idx.tolist(), weights):
            hist[i] += w.numerator * (den // w.denominator)
    coeffs = fwht(hist)
    weight = mask_weights(n)
    sel = (weight >= 1) & (weight <= k)
    return [int(m) for m in np.nonzero(sel & (coeffs != 0))[0]]


# --------------------------------------------------------------------------
# exact polynomial values


class IntPoly:
    """A degree-2 polynomial scaled to integers: p(x) = value(x) / den.

    Built from float coefficients, which are dyadic rationals, so the
    scaling loses nothing.  ``upper[i][j]`` (i < j) is the coefficient of
    x_i x_j; the diagonal folds into the constant because x_i^2 = 1.
    """

    def __init__(self, constant: float, linear: Sequence[float],
                 quad: np.ndarray):
        n = len(linear)
        quad = np.asarray(quad, dtype=np.float64)
        fr_const = Fraction(float(constant)) + sum(
            (Fraction(float(quad[i, i])) for i in range(n)), Fraction(0))
        fr_lin = [Fraction(float(v)) for v in linear]
        fr_up = {(i, j): Fraction(float(quad[i, j])) + Fraction(float(quad[j, i]))
                 for i in range(n) for j in range(i + 1, n)}
        terms = [fr_const, *fr_lin, *fr_up.values()]
        self.n = n
        self.den = math.lcm(*(t.denominator for t in terms))
        self.constant = int(fr_const * self.den)
        self.linear = [int(v * self.den) for v in fr_lin]
        self.upper = {ij: int(v * self.den) for ij, v in fr_up.items() if v}

    @classmethod
    def of(cls, p) -> "IntPoly":
        return cls(p.constant, p.linear, p.quad)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Integer numerators of p at the ±1 rows (object dtype)."""
        X = np.asarray(points).astype(object)
        out = np.full(X.shape[0], self.constant, dtype=object)
        for i, c in enumerate(self.linear):
            if c:
                out += c * X[:, i]
        for (i, j), c in self.upper.items():
            out += c * (X[:, i] * X[:, j])
        return out


def sgn_values(p: IntPoly, points: np.ndarray) -> np.ndarray:
    """sgn(p) at the rows with sgn(0) = +1, int64."""
    return np.where(p.values(points) >= 0, 1, -1).astype(np.int64)


# --------------------------------------------------------------------------
# sandwich certificates


def certificate_violations(coefficients: Mapping[tuple[int, ...], Fraction],
                           direction: str, target: np.ndarray, n: int) -> int:
    """Cube points where a certificate is on the wrong side of ``target``.

    ``coefficients`` maps 0-based subsets to rationals that must be
    multiples of 2^-32; ``target`` holds the integer objective at every
    cube point in index order.  An upper certificate must satisfy
    q(x) >= target(x) everywhere, a lower one q(x) <= target(x).  The
    check runs on the integer numerators, so it is exact.
    """
    require(direction in ("upper", "lower"), f"unknown direction {direction!r}")
    nums = np.zeros(1 << n, dtype=object)
    nums[:] = 0
    for subset, value in coefficients.items():
        scaled = Fraction(value) * CERT_DENOMINATOR
        require(scaled.denominator == 1,
                f"coefficient {value} of {subset} is not a multiple of 2^-32")
        mask = sum(1 << i for i in subset)
        nums[mask] += scaled.numerator
    q = fwht(nums)
    goal = np.asarray(target).astype(object) * CERT_DENOMINATOR
    wrong = (q < goal) if direction == "upper" else (q > goal)
    return int(np.count_nonzero(wrong))


def parse_certificate(payload: Mapping) -> tuple[str, dict[tuple[int, ...], Fraction]]:
    """Direction and 0-based coefficients of one certificate as the
    ``ptf-fool fool lp`` report writes it ("1,3" or "const" keys)."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for key, value in payload["coefficients"].items():
        subset = () if key == "const" else tuple(int(t) - 1 for t in key.split(","))
        coeffs[subset] = Fraction(value)
    return payload["direction"], coeffs


# --------------------------------------------------------------------------
# sample-space files


def read_space_file(path) -> tuple[int, int, np.ndarray, Optional[list[Fraction]]]:
    """(n, k, points, weights) of a space file; weights None if uniform."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        require(len(header) == 4 and header[3] in ("weighted:0", "weighted:1"),
                f"bad space header {header}")
        n, k, num = int(header[0]), int(header[1]), int(header[2])
        body = fh.read().split()
    if header[3] == "weighted:0":
        require(len(body) == num * n, "space file has the wrong number of entries")
        pts = np.array(body, dtype=np.int8).reshape(num, n)
        weights = None
    else:
        require(len(body) == num * (n + 1), "space file has the wrong number of entries")
        rows = np.array(body, dtype=object).reshape(num, n + 1)
        pts = rows[:, :n].astype(np.int8)
        weights = [Fraction(w) for w in rows[:, n]]
    require(bool(np.all(np.abs(pts) == 1)), "space entries must be ±1")
    return n, k, pts, weights


# --------------------------------------------------------------------------
# moments


def trace_centered_moment(A: np.ndarray, k: int) -> Fraction:
    """E_x[(x'Ax - tr A)^k] over the uniform cube, as an exact rational."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    p = IntPoly(0.0, [0.0] * n, A - np.diag(np.diag(A)))
    vals = p.values(cube_points(n))
    total = sum(int(v) ** k for v in vals)
    return Fraction(total, (1 << n) * p.den ** k)


# --------------------------------------------------------------------------
# hyperplane rounding


def expected_cut(edges: Sequence[tuple[int, int, float]],
                 vectors: np.ndarray) -> float:
    """Goemans-Williamson expectation: sum of w * arccos<u, v> / pi."""
    vectors = np.asarray(vectors, dtype=np.float64)
    terms = []
    for u, v, w in edges:
        ip = min(1.0, max(-1.0, float(np.dot(vectors[u], vectors[v]))))
        terms.append(w * math.acos(ip) / math.pi)
    return math.fsum(terms)


def rounding_within_allowance(mean_cut: float, ci: float,
                              edges: Sequence[tuple[int, int, float]],
                              vectors: np.ndarray,
                              allowance: float = 0.25) -> bool:
    """|mean - exact cut| <= allowance + ci, the acceptance tolerance for
    rounding with a bounded-independence Gaussian space."""
    return abs(mean_cut - expected_cut(edges, vectors)) <= allowance + ci
