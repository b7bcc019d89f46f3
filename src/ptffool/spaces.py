"""Bounded-independence sample spaces over the hypercube and their
Gaussian companions.

Two explicit constructions are provided for k-wise independent ±1 vectors:

* ``vandermonde_bit``: evaluate all degree-(k-1) polynomials over
  GF(2^m) at n distinct field points and keep one output bit per point.
  Seed length k*m with m = ceil(log2 n).
* ``bch_parity``: the dual-BCH space.  Coordinate i is the inner product
  of the seed blocks with the odd powers alpha_i, alpha_i^3, ...,
  XORed with a shared parity bit when k is odd.  Seed length
  floor(k/2)*m (+1 for odd k) with m = ceil(log2(n+1)), roughly half of
  the Vandermonde length.

Both, and the Gaussian levels below, are GF(2)-linear in the seed bits,
so every space is one generator matrix G (seed bits x output bits):
materializing is XOR doubling over the rows of G, sampling is drawn seed
bits @ G mod 2, or for the Gaussian levels one lookup per byte of each
m-bit seed block, in a table of that byte's 256 XOR-combinations of rows.

Verification is exact: the biases of all parities of order up to k are
integers over a common denominator, from one integer Walsh-Hadamard
transform of the point histogram or, when that is dearer, parity by
parity; never floating point, because k-wise independence is exact and
an approximate check would mask construction bugs.

Gaussian spaces come in two flavors.  ``inverse_cdf`` feeds exactly
k-wise independent uniform levels (the low log2 q bits of the field
evaluations) through the normal quantile function, so any k coordinates
are mutually independent and the marginal is a q-level discretization
of N(0,1).  ``binomial_sum`` averages N bounded-independence bits per
coordinate, giving mean 0 and variance exactly 1 at the cost of a
lattice marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import config
from .cube import fwht_inplace as fwht    # the verifier owns its histogram
from .errors import (ConfigurationError, FormatError, InvalidOrderError,
                     ResourceBudgetError)
from .gf2 import (BLOCK_ELEMENTS, gf_elements, gf_mul_vec, gf_mul_x, gf_powers,
                  mod2_matmul, unpack_bits, xor_span)


# --------------------------------------------------------------------------
# generator matrices


def _evaluation_basis(powers: np.ndarray, m: int) -> np.ndarray:
    """(blocks, m, n) field elements x^b alpha_i^j from the rows alpha_i^j
    of ``powers``, one multiply-by-x per bit b: the image at coordinate i
    of seed bit j*m + b, whose seed is k little-endian m-bit blocks c_j."""
    basis = np.empty((len(powers), m) + powers.shape[1:], dtype=np.uint64)
    cur = powers
    for b in range(m):
        basis[:, b] = cur
        cur = gf_mul_x(cur, m)
    return basis


def _evaluation_generator(points, k: int, m: int, width: int) -> np.ndarray:
    """G of x_i = the low ``width`` bits of sum_j c_j alpha_i^j in GF(2^m).
    Columns run coordinate-major, bits least significant first."""
    powers = gf_powers(np.array(points, dtype=np.uint64), k, m)
    return unpack_bits(_evaluation_basis(powers, m).reshape(k * m, len(points)), width)


def _quantiles(levels: np.ndarray, q: int) -> np.ndarray:
    """The normal quantiles ndtri((levels + 1/2) / q) of q-level uniforms."""
    from scipy.special import ndtri     # scipy.special: on first use
    return ndtri((levels + 0.5) / q)


def _seed_bits(seed: int, width: int) -> np.ndarray:
    """The bits of one integer seed as a (1, width) row, least significant first."""
    return np.array([[(seed >> b) & 1 for b in range(width)]], dtype=np.uint8)


# --------------------------------------------------------------------------
# seed-indexed constructions


@dataclass(frozen=True)
class BernoulliConstruction:
    """A seed-indexed k-wise independent map {0,1}^seed_bits -> {-1,1}^n,
    GF(2)-linear with generator matrix ``generator()``.  Points can be
    derived one seed at a time without materializing the full support,
    which the Gaussian ``binomial_sum`` method relies on when n*N is large.
    """

    n: int
    k: int
    method: str          # "vandermonde_bit" | "bch_parity"
    m: int               # field degree
    seed_bits: int
    eval_points: tuple[int, ...]

    @property
    def num_seeds(self) -> int:
        return 1 << self.seed_bits

    def generator(self) -> np.ndarray:
        """G (seed_bits x n, uint8): coordinate i of seed s is -1 iff bit i
        of (bits of s) @ G mod 2 is set."""
        if self.method == "vandermonde_bit":
            return _evaluation_generator(self.eval_points, self.k, self.m, 1)
        # bch: bit i = parity ^ <y_j, alpha_i^(2j+1)> over the m-bit blocks y_j
        alpha = np.array(self.eval_points, dtype=np.uint64)
        odd = gf_mul_vec(gf_powers(gf_mul_vec(alpha, alpha, self.m),
                                   self.k // 2, self.m), alpha, self.m)
        G = unpack_bits(odd.T, self.m).T
        if self.k % 2:          # the shared parity bit is seed bit 0
            G = np.vstack([np.ones((1, self.n), dtype=np.uint8), G])
        return G

    def materialize(self) -> np.ndarray:
        """Every point, row s for seed s."""
        return 1 - 2 * xor_span(self.generator()).view(np.int8)


def _vandermonde_construction(n: int, k: int) -> BernoulliConstruction:
    m = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    points = tuple(gf_elements(n, m))
    return BernoulliConstruction(n=n, k=k, method="vandermonde_bit", m=m,
                                 seed_bits=k * m, eval_points=points)


def _bch_construction(n: int, k: int) -> BernoulliConstruction:
    m = max(1, math.ceil(math.log2(n + 1)))
    points = tuple(gf_elements(n, m, nonzero=True))
    return BernoulliConstruction(n=n, k=k, method="bch_parity", m=m,
                                 seed_bits=(k // 2) * m + k % 2, eval_points=points)


# --------------------------------------------------------------------------
# sample spaces


@dataclass
class SampleSpace:
    """A finitely supported distribution on {-1,1}^n.

    ``weights`` is None for spaces that are uniform over their rows (one
    row per seed; duplicate rows carry multiplicity).  Otherwise it is a
    list of exact nonnegative Fractions summing to 1.
    """

    n: int
    k_claimed: int
    points: np.ndarray                      # (num_points, n) int8, entries ±1
    weights: Optional[list[Fraction]] = None
    seed_bits: Optional[int] = None
    method: str = "explicit"
    construction: Optional[BernoulliConstruction] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.int8)
        if self.points.ndim != 2 or self.points.shape[1] != self.n:
            raise ConfigurationError("points must be a (num_points, n) array")
        self.validate()

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_seeds(self) -> int:
        """Size of the integer seed range accepted by sample()."""
        if self.weights is None:
            return self.num_points
        return math.lcm(*(w.denominator for w in self.weights))

    def probability(self, mask: np.ndarray) -> Fraction:
        """Exact probability of the rows where the boolean ``mask`` is set:
        a row count for a uniform space, else a dot product with the
        integer weight numerators over their common denominator."""
        weights, denom = _integer_weights(self)
        hits = np.count_nonzero(mask) if weights is None else np.dot(mask, weights)
        return Fraction(int(hits), denom)

    def validate(self) -> None:
        if not np.all(np.abs(self.points) == 1):
            raise ConfigurationError("all coordinates must be ±1")
        if self.weights is not None:
            if len(self.weights) != self.num_points:
                raise ConfigurationError("one weight per point required")
            if any(w < 0 for w in self.weights):
                raise ConfigurationError("weights must be nonnegative")
            if sum(self.weights) != 1:
                raise ConfigurationError("weights must sum to exactly 1")
        if self.seed_bits is not None and self.weights is None:
            if self.num_points != (1 << self.seed_bits):
                raise ConfigurationError(
                    "seed-based space must have 2^seed_bits points")


def build_kwise_bernoulli(n: int, k: int, method: str = "vandermonde_bit",
                          budget: int = config.SUPPORT_BUDGET) -> SampleSpace:
    """Construct an exactly k-wise independent space on {-1,1}^n.

    The returned space is uniform over 2^seed_bits rows and carries its
    construction handle, so callers can re-derive any row from its seed.
    """
    if not 1 <= k <= n:
        raise InvalidOrderError(f"need 1 <= k <= n, got k={k}, n={n}")
    if method == "vandermonde_bit":
        cons = _vandermonde_construction(n, k)
    elif method == "bch_parity":
        cons = _bch_construction(n, k)
    else:
        raise ConfigurationError(f"unknown method {method!r}")
    if cons.num_seeds > budget:
        raise ResourceBudgetError(
            f"construction needs support 2^{cons.seed_bits} = "
            f"{cons.num_seeds} > budget {budget}; "
            "use the construction handle for seed streaming")
    points = cons.materialize()
    return SampleSpace(n=n, k_claimed=k, points=points, weights=None,
                       seed_bits=cons.seed_bits, method=method,
                       construction=cons)


def sample(space, seed: int) -> np.ndarray:
    """Deterministic sample by seed index.

    For a uniform space, seed is a row index.  For a rationally weighted
    space, seeds 0..D-1 (D = lcm of weight denominators) are split among
    the points in exact proportion to their weights, so a sweep over all
    seeds reproduces the distribution exactly.
    """
    if isinstance(space, GaussianSpace):
        return space.sample(seed)
    weights, denom = _integer_weights(space)
    if not 0 <= seed < denom:
        raise ValueError(f"seed {seed} out of range [0, {denom})")
    row = seed if space.weights is None else np.searchsorted(np.cumsum(weights), seed, "right")
    return space.points[row].copy()


# --------------------------------------------------------------------------
# exact verification


@dataclass
class VerificationReport:
    passed: bool
    order: int
    subsets_checked: int
    worst_subset: Optional[tuple[int, ...]]
    worst_bias: Fraction
    failures: list

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"kwise[{self.order}]: {status} over {self.subsets_checked} "
                f"parities; worst |bias| {self.worst_bias} at {self.worst_subset}")


def _integer_weights(space: SampleSpace) -> tuple[Optional[np.ndarray], int]:
    """Row weights as integer numerators over their common denominator.
    They are nonnegative and sum to it, so every parity sum fits int64
    when the denominator does; Python ints (an object array) otherwise.
    None for a uniform space, whose parity sums count rows."""
    if space.weights is None:
        return None, space.num_points
    denom = space.num_seeds
    nums = [w.numerator * (denom // w.denominator) for w in space.weights]
    return np.array(nums, dtype=np.int64 if denom < 1 << 63 else object), denom


def verify_kwise_exact(space: SampleSpace, k: Optional[int] = None) -> VerificationReport:
    """Exact zero-bias check of every parity of order 1..k.

    All arithmetic is integer or rational; a space passes iff every bias
    is exactly zero.  Biases come from one integer Walsh-Hadamard transform
    of the point histogram when 2^n fits ``config.SUPPORT_BUDGET`` and that
    is cheaper, else one parity at a time.  Failures are listed by size,
    then lexicographically; the report carries the first subset of maximal
    bias so a failure is immediately actionable.
    """
    order = space.k_claimed if k is None else k
    if order < 0:
        raise InvalidOrderError(f"order must be >= 0, got {order}")
    n = space.n
    weights, total = _integer_weights(space)
    rows = len(space.points)
    checked = sum(math.comb(n, size) for size in range(1, min(order, n) + 1))
    biased = []                     # (subset, integer parity sum)
    # one parity costs about as much as 512 + rows/32 butterflies (measured)
    if (1 << n) <= config.SUPPORT_BUDGET and n << n <= checked * (rows // 32 + 512):
        hist = np.zeros(1 << n, dtype=np.int64 if weights is None else weights.dtype)
        step = max(1, BLOCK_ELEMENTS // max(1, n))          # sign bits a block of rows at a time
        for start in range(0, rows, step):
            block = space.points[start:start + step] < 0
            packed = np.zeros((len(block), 4), dtype=np.uint8)     # n <= 24: a uint32 per row
            packed[:, :(n + 7) // 8] = np.packbits(block, axis=1, bitorder="little")
            np.add.at(hist, packed.view("<u4")[:, 0],
                      1 if weights is None else weights[start:start + step])
        spectrum = fwht(hist)
        size = np.zeros(1 << n, dtype=np.uint8)             # subset sizes, by doubling
        for i in range(n):
            size[1 << i:2 << i] = size[:1 << i] + 1
        masks = np.flatnonzero((spectrum != 0) & (size >= 1) & (size <= order))
        biased = [(tuple(i for i in range(n) if s >> i & 1), int(spectrum[s]))
                  for s in masks.tolist()]
    else:
        cols = np.ascontiguousarray((space.points < 0).T)
        def walk(subset, parity):   # depth first: the parity of subset + (i,) is parity ^ x_i
            if len(subset) >= order:
                return
            for i in range(subset[-1] + 1 if subset else 0, n):
                grown, cur = subset + (i,), parity ^ cols[i]
                odd = int(np.count_nonzero(cur) if weights is None else np.dot(cur, weights))
                if total != 2 * odd:
                    biased.append((grown, total - 2 * odd))
                walk(grown, cur)

        walk((), np.zeros(rows, dtype=bool))
    biased.sort(key=lambda e: (len(e[0]), e[0]))

    failures = [(subset, Fraction(value, total)) for subset, value in biased]
    worst_subset, worst_bias = max(failures, key=lambda f: abs(f[1]),
                                   default=(None, Fraction(0)))
    return VerificationReport(passed=not failures, order=order,
                              subsets_checked=checked,
                              worst_subset=worst_subset,
                              worst_bias=worst_bias, failures=failures)


# --------------------------------------------------------------------------
# Gaussian spaces


@dataclass
class GaussianSpace:
    """k-wise independent R^n vectors with near-normal marginals.

    inverse_cdf: coordinate i equals ndtri((u_i + 1/2)/q) where the u_i
    are k-wise independent q-level uniforms obtained from field
    evaluations; any k coordinates are mutually independent because any
    k evaluations of a random degree-(k-1) polynomial are jointly
    uniform.

    binomial_sum: coordinate i averages N ±1 values (2k-wise independent
    across all n*N of them) scaled by 1/sqrt(N).
    """

    n: int
    k_claimed: int
    method: str                       # "inverse_cdf" | "binomial_sum"
    resolution: int                   # q for inverse_cdf, N for binomial_sum
    m: int = 0                        # field degree (inverse_cdf)
    eval_points: tuple[int, ...] = ()
    underlying: Optional[BernoulliConstruction] = None
    seed_bits: int = 0

    @property
    def num_seeds(self) -> int:
        return 1 << self.seed_bits

    def generator(self) -> np.ndarray:
        """G (seed_bits x output bits, uint8): the log2 q level bits of each
        coordinate for inverse_cdf, the underlying bits for binomial_sum."""
        if self.method == "inverse_cdf":
            return _evaluation_generator(self.eval_points, self.k_claimed,
                                         self.m, self.resolution.bit_length() - 1)
        return self.underlying.generator()

    def _z(self, bits: np.ndarray) -> np.ndarray:
        """Samples (rows, n) from output bits (rows, columns of G)."""
        rows = bits.shape[0]
        if self.method == "inverse_cdf":
            width = self.resolution.bit_length() - 1
            levels = bits.reshape(rows, self.n, width) @ (1 << np.arange(width))
            return _quantiles(levels, self.resolution)
        # each ±1 sum is exact in float64, so counting set bits is identical
        N = self.resolution
        ones = bits.reshape(rows, self.n, N).sum(axis=2, dtype=np.int64)
        return (N - 2 * ones) / math.sqrt(N)

    def _inverse_cdf(self, draw, count: int) -> np.ndarray:
        """Samples (count, n) from coefficient blocks; ``draw(lo, hi)``
        returns blocks lo..hi-1 as a (hi - lo, count) uint64 array.

        Four Russians over the field basis: byte t of block j selects one
        of the 256 XOR-combinations of basis rows x^(8t..8t+7) alpha_i^j,
        each row the n coordinates' levels packed 64 // width to a uint64
        word, and the levels are the XOR of one lookup per byte.  Tables
        are built a run of blocks at a time, a few MiB whatever k is.
        """
        n, k, m = self.n, self.k_claimed, self.m
        mask = np.uint64(self.resolution - 1)
        width = self.resolution.bit_length() - 1
        per_word = 64 // width
        words = -(-n // per_word)
        shifts = (np.arange(words * per_word, dtype=np.uint64)
                  % np.uint64(per_word)) * np.uint64(width)
        nbytes = (m + 7) // 8
        powers = gf_powers(np.array(self.eval_points, dtype=np.uint64), k, m)
        # blocks per run: tables, indices and lookups of 8-byte entries stay
        # at BLOCK_ELEMENTS * 4 bytes (2 MiB) each, as mod2_matmul's do
        step = max(1, BLOCK_ELEMENTS // (2 * nbytes * words * max(count, 256)))
        acc = np.zeros((count, words), dtype=np.uint64)
        for lo in range(0, k, step):
            hi = min(k, lo + step)
            tabs = (hi - lo) * nbytes
            basis = np.zeros((hi - lo, nbytes * 8, words * per_word), dtype=np.uint64)
            basis[:, :m, :n] = _evaluation_basis(powers[lo:hi], m) & mask
            rows = np.bitwise_or.reduce(
                (basis << shifts).reshape(tabs, 8, words, per_word), axis=3)
            tables = np.empty((tabs, 256, words), dtype=np.uint64)
            tables[:, 0] = 0
            for r in range(8):          # XOR doubling over each byte's 8 rows
                np.bitwise_xor(tables[:, :1 << r], rows[:, r, None],
                               out=tables[:, 1 << r:2 << r])
            coefs = draw(lo, hi).astype("<u8", copy=False).view(np.uint8)
            offsets = 256 * np.arange(tabs, dtype=np.intp).reshape(hi - lo, nbytes, 1)
            index = np.empty((hi - lo, nbytes, count), dtype=np.intp)
            for t in range(nbytes):     # byte t of each coefficient, as a table row
                np.add(coefs.reshape(hi - lo, count, 8)[:, :, t], offsets[:, t],
                       out=index[:, t])
            hits = np.take(tables.reshape(tabs * 256, words), index.reshape(tabs, count), axis=0)
            acc ^= np.bitwise_xor.reduce(hits, axis=0)
        levels = acc[:, :, None] >> shifts.reshape(words, per_word) & mask
        return _quantiles(levels.reshape(count, words * per_word)[:, :n], self.resolution)

    def sample(self, seed: int) -> np.ndarray:
        """Deterministic sample from an integer seed (any size)."""
        if not 0 <= seed < self.num_seeds:
            raise ValueError(f"seed out of range [0, 2^{self.seed_bits})")
        if self.method == "inverse_cdf":
            mask = (1 << self.m) - 1
            return self._inverse_cdf(lambda lo, hi: np.array(
                [[seed >> (j * self.m) & mask] for j in range(lo, hi)],
                dtype=np.uint64), 1)[0]
        return self._z(mod2_matmul(_seed_bits(seed, self.seed_bits),
                                   self.generator()))[0]

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) matrix of samples drawn through ``rng``.

        Equivalent to sampling seeds uniformly: inverse_cdf draws its k
        coefficient blocks in order, ``count`` values per block, and
        binomial_sum 32-bit words per row, the first most significant,
        through G in blocks of a few MB whatever ``count`` is.
        """
        if self.method == "inverse_cdf":
            return self._inverse_cdf(lambda lo, hi: rng.integers(
                0, 1 << self.m, size=(hi - lo, count), dtype=np.uint64), count)
        G = self.generator()
        out = np.empty((count, self.n), dtype=np.float64)
        words = (self.seed_bits + 31) // 32
        chunk = max(1, (1 << 22) // max(1, G.shape[1]))
        for done in range(0, count, chunk):
            take = min(chunk, count - done)
            raw = rng.integers(0, 1 << 32, size=(take, words), dtype=np.uint64)
            seeds = unpack_bits(raw[:, ::-1], 32)[:, :self.seed_bits]
            out[done:done + take] = self._z(mod2_matmul(seeds, G))
        return out

    def enumerate_samples(self, budget: int = config.SUPPORT_BUDGET) -> np.ndarray:
        """All samples, one per seed; needs 2^seed_bits within budget."""
        if self.num_seeds > budget:
            raise ResourceBudgetError(
                f"2^{self.seed_bits} seeds exceed budget {budget}")
        return self._z(xor_span(self.generator()))

    def marginal_values(self) -> np.ndarray:
        """Support of one coordinate's marginal (inverse_cdf only)."""
        if self.method != "inverse_cdf":
            raise ConfigurationError("defined for inverse_cdf spaces")
        return _quantiles(np.arange(self.resolution), self.resolution)


def _marginal_variance(q: int) -> float:
    """Variance of the q-level quantile grid, from its lower half: for q a
    power of two, (i + 1/2)/q is dyadic and level q-1-i is exactly minus
    level i."""
    z = _quantiles(np.arange(q // 2), q)
    return float(np.mean(z * z))


def build_kwise_gaussian(n: int, k: int, method: str = "inverse_cdf",
                         resolution: Optional[int] = None,
                         variance_tol: float = config.GAUSSIAN_VARIANCE_TOL
                         ) -> GaussianSpace:
    """Construct a k-wise independent Gaussian space on R^n."""
    if not 1 <= k:
        raise InvalidOrderError("k must be >= 1")
    if method == "inverse_cdf":
        q = config.GAUSSIAN_LEVELS_DEFAULT if resolution is None else resolution
        if q < 16:
            raise ConfigurationError("resolution must be >= 16")
        if q & (q - 1):
            raise ConfigurationError("inverse_cdf resolution must be a power of 2")
        lev_bits = q.bit_length() - 1
        need_pts = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        m = max(lev_bits, need_pts)
        gs = GaussianSpace(n=n, k_claimed=k, method="inverse_cdf",
                           resolution=q, m=m,
                           eval_points=tuple(gf_elements(n, m)),
                           seed_bits=k * m)
        var = _marginal_variance(q)
        if abs(var - 1.0) > variance_tol:
            raise ConfigurationError(
                f"resolution q={q} gives marginal variance {var:.4f}, "
                f"outside 1 ± {variance_tol}")
        return gs
    if method == "binomial_sum":
        N = config.BINOMIAL_N_DEFAULT if resolution is None else resolution
        if N < 16:
            raise ConfigurationError("resolution must be >= 16")
        order = min(2 * k, n * N)
        cons = _bch_construction(n * N, order)
        return GaussianSpace(n=n, k_claimed=k, method="binomial_sum",
                             resolution=N, underlying=cons,
                             seed_bits=cons.seed_bits)
    raise ConfigurationError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# file format

# header: `n k num_points weighted:{0,1}`; one point per line as ±1
# integers, with a trailing exact fraction `p/q` when weighted.


def dump_sample_space(space: SampleSpace, path) -> None:
    # a coordinate is an optional "-", then "1", then its separator; the
    # zero byte of a +1 coordinate is dropped
    cells = np.zeros(space.points.shape + (3,), dtype=np.uint8)
    cells[..., 0] = np.where(space.points < 0, ord("-"), 0)
    cells[..., 1] = ord("1")
    cells[..., 2] = ord(" ")
    cells[:, -1, 2] = ord("\n")
    flat = cells.ravel()
    body = flat[flat != 0].tobytes().decode("ascii")
    weighted = space.weights is not None
    if weighted:
        body = "".join(f"{coords} {w.numerator}/{w.denominator}\n" for coords, w
                       in zip(body.splitlines(), space.weights))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{space.n} {space.k_claimed} {space.num_points} "
                 f"weighted:{int(weighted)}\n")
        fh.write(body)


def load_sample_space(path) -> SampleSpace:
    """Read a space file strictly: the header, then exactly num_points
    lines of n coordinates, each 1 or -1, plus one exact weight when
    weighted.  Any deviation raises FormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            lines = fh.read().split("\n")
        n, k, num = (int(v) for v in header[:3])
        weighted = header[3:] == ["weighted:1"]
        if header[3:] not in (["weighted:0"], ["weighted:1"]) or min(n, num) < 1 or k < 0:
            raise ValueError(f"bad header {header}")
        if lines[-1] == "":
            lines.pop()
        if len(lines) != num:
            raise ValueError(f"{len(lines)} point lines, header declares {num}")
        table = np.loadtxt(lines, dtype=str if weighted else np.int8,
                           comments=None, ndmin=2)
        if table.shape != (num, n + weighted):
            raise ValueError(f"point table of shape {table.shape}, "
                             f"expected {(num, n + weighted)}")
        points = table[:, :n].astype(np.int8)
        if not np.all(np.abs(points) == 1):
            raise ValueError("coordinates must be 1 or -1")
        weights = [Fraction(w) for w in table[:, n]] if weighted else None
        return SampleSpace(n=n, k_claimed=k, points=points, weights=weights,
                           method="file")
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise FormatError(f"sample-space file {path}: {exc}") from None
