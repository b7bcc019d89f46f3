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

Both, and the Gaussian spaces below, are GF(2)-linear in the seed bits,
so every space is one generator matrix G (seed bits x output bits), and
each construction is one function that returns it, with the field degree
and evaluation points derived from n: ``_bernoulli_generator`` for the
two above, ``_evaluation_generator`` for the inverse_cdf levels.  A
Gaussian space holds its G from the build.  Materializing and
enumerating are XOR doubling over the rows of G, and
a Gaussian sample is one lookup per byte of its seed, in a table of that
byte's 256 XOR-combinations of G's rows packed into uint64 words.

Verification is exact: the biases of all parities of order up to k are
integers over a common denominator, from one integer Walsh-Hadamard
transform of the point histogram or, when that is dearer, parity by
parity; never floating point, because k-wise independence is exact and
an approximate check would mask construction bugs.

Gaussian spaces come in two flavors.  ``inverse_cdf`` feeds exactly
k-wise independent uniform levels (the low log2 q bits of the field
evaluations) through the normal quantile function, so any k coordinates
are mutually independent and the marginal is a q-level discretization
of N(0,1).  ``binomial_sum`` scales the sum of N bits per coordinate, from
one 2k-wise independent space over all n*N of them, by 1/sqrt(N): mean 0
and variance exactly 1, a lattice marginal, and every mixed moment of
degree <= 2k equal to its value under independent coordinates.  Its
coordinates are not k-wise independent in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import config
from .cube import fwht_inplace as fwht    # the verifier owns its histogram
from .errors import (ConfigurationError, FormatError, InvalidOrderError,
                     ResourceBudgetError)
from .gf2 import (BLOCK_ELEMENTS, gf_elements, gf_mul_vec, gf_mul_x, gf_powers,
                  popcount_u64, unpack_bits, xor_span)


# --------------------------------------------------------------------------
# generator matrices


def _evaluation_generator(points, k: int, m: int, width: int) -> np.ndarray:
    """G of x_i = the low ``width`` bits of sum_j c_j alpha_i^j in GF(2^m),
    whose seed is k little-endian m-bit blocks c_j: row j*m + b holds the
    field elements x^b alpha_i^j, one multiply-by-x per bit b.  Columns
    run coordinate-major, bits least significant first."""
    cur = gf_powers(np.array(points, dtype=np.uint64), k, m)
    basis = np.empty((k, m, len(points)), dtype=np.uint64)
    for b in range(m):
        basis[:, b] = cur
        cur = gf_mul_x(cur, m)
    return unpack_bits(basis.reshape(k * m, len(points)), width)


def _bernoulli_generator(n: int, k: int, method: str) -> np.ndarray:
    """G (seed bits x n, uint8) of an exactly k-wise independent space on
    {-1,1}^n: coordinate i of seed s is -1 iff bit i of (bits of s) @ G
    mod 2 is set.  The ``binomial_sum`` Gaussian space samples the BCH
    space through G and never materializes its support, which is too
    large when n*N is."""
    if method == "vandermonde_bit":
        m = max(1, (n - 1).bit_length())        # ceil(log2 n)
        return _evaluation_generator(gf_elements(n, m), k, m, 1)
    if method != "bch_parity":
        raise ConfigurationError(f"unknown method {method!r}")
    # bit i = parity ^ <y_j, alpha_i^(2j+1)> over the m-bit blocks y_j
    m = n.bit_length()                          # ceil(log2(n + 1))
    alpha = np.array(gf_elements(n, m, nonzero=True), dtype=np.uint64)
    odd = gf_mul_vec(gf_powers(gf_mul_vec(alpha, alpha, m), k // 2, m), alpha, m)
    G = unpack_bits(odd.T, m).T
    if k % 2:               # the shared parity bit is seed bit 0
        G = np.vstack([np.ones((1, n), dtype=np.uint8), G])
    return G


def _quantiles(levels: np.ndarray, q: int) -> np.ndarray:
    """The normal quantiles ndtri((levels + 1/2) / q) of q-level uniforms."""
    from scipy.special import ndtri     # scipy.special: on first use
    return ndtri((levels + 0.5) / q)


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


def build_kwise_bernoulli(n: int, k: int, method: str = "vandermonde_bit") -> SampleSpace:
    """Construct an exactly k-wise independent space on {-1,1}^n: uniform
    over its 2^seed_bits rows, one row per seed, at most
    ``config.SUPPORT_BUDGET`` of them."""
    if not 1 <= k <= n:
        raise InvalidOrderError(f"need 1 <= k <= n, got k={k}, n={n}")
    G = _bernoulli_generator(n, k, method)
    bits = G.shape[0]
    if 1 << bits > config.SUPPORT_BUDGET:
        raise ResourceBudgetError(
            f"construction needs support 2^{bits} = "
            f"{1 << bits} > budget {config.SUPPORT_BUDGET}")
    return SampleSpace(n=n, k_claimed=k, points=1 - 2 * xor_span(G).view(np.int8),
                       weights=None, seed_bits=bits, method=method)


def sample(space: SampleSpace, seed: int) -> np.ndarray:
    """Deterministic sample by seed index.

    For a uniform space, seed is a row index.  For a rationally weighted
    space, seeds 0..D-1 (D = lcm of weight denominators) are split among
    the points in exact proportion to their weights, so a sweep over all
    seeds reproduces the distribution exactly.
    """
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
    """Bounded-independence R^n vectors with near-normal marginals.

    inverse_cdf: coordinate i equals ndtri((u_i + 1/2)/q) where the u_i
    are k-wise independent q-level uniforms obtained from field
    evaluations; any k coordinates are mutually independent because any
    k evaluations of a random degree-(k-1) polynomial are jointly
    uniform.

    binomial_sum: coordinate i sums N ±1 values (2k-wise independent
    across all n*N of them), scaled by 1/sqrt(N).  Every mixed moment of
    degree <= 2k matches independent coordinates exactly, but the
    coordinates are not k-wise independent: at n=2, k=2, N=16 the joint
    law of (z1, z2) is up to 0.04 away from the product of its marginals.

    Either space is held as its generator matrix ``G`` (seed bits x output
    bits, uint8), built once by ``build_kwise_gaussian``: the log2 q level
    bits of each coordinate for inverse_cdf, the n*N bits of the BCH
    space for binomial_sum.
    """

    n: int
    k_claimed: int
    method: str                       # "inverse_cdf" | "binomial_sum"
    resolution: int                   # q for inverse_cdf, N for binomial_sum
    G: np.ndarray = field(repr=False, compare=False)

    @property
    def num_seeds(self) -> int:
        return 1 << len(self.G)

    @cached_property
    def _packed_rows(self) -> np.ndarray:
        """G's rows in uint64 words, least significant bit first: inverse_cdf
        levels 64 // width to a word, each binomial_sum coordinate's N bits
        in words of its own.  Built on first use, once per space."""
        G, n = self.G, self.n
        rows, width = G.shape[0], G.shape[1] // n
        per_word = 64 // width if self.method == "inverse_cdf" else 1
        groups = -(-n // per_word)
        fields = np.zeros((rows, groups * per_word * width), dtype=np.uint8)
        fields[:, :n * width] = G
        cells = np.zeros((rows, groups, -(-per_word * width // 64) * 64), dtype=np.uint8)
        cells[:, :, :per_word * width] = fields.reshape(rows, groups, per_word * width)
        return np.packbits(cells, axis=2, bitorder="little").view("<u8").reshape(rows, -1)

    def _block_bits(self) -> int:
        """Bits per seed block: an m-bit field coefficient for inverse_cdf,
        one of k_claimed, a byte for binomial_sum; blocks are little-endian
        in the seed."""
        return len(self.G) // self.k_claimed if self.method == "inverse_cdf" else 8

    def _decode(self, words: np.ndarray) -> np.ndarray:
        """Samples (rows, n) from packed outputs (rows, words)."""
        rows, cols = words.shape
        if self.method == "inverse_cdf":
            width = self.resolution.bit_length() - 1
            shifts = np.arange(0, 64 // width * width, width, dtype=np.uint64)
            levels = words[:, :, None] >> shifts & np.uint64(self.resolution - 1)
            return _quantiles(levels.reshape(rows, cols * len(shifts))[:, :self.n],
                              self.resolution)
        # a coordinate's ±1 sum is N - 2 * (its set bits), exactly
        N = self.resolution
        ones = popcount_u64(words).reshape(rows, self.n, cols // self.n)
        return (N - 2 * ones.sum(axis=2, dtype=np.int64)) / math.sqrt(N)

    def _images(self, draw, count: int) -> np.ndarray:
        """Packed outputs (count, words) of ``count`` seeds; ``draw(lo, hi)``
        returns seed blocks lo..hi-1 as a (hi - lo, count) unsigned array.

        Four Russians: byte t of block j selects one of the 256
        XOR-combinations of the packed rows of G at bits 8t..8t+7 of that
        block, and the output is the XOR of one lookup per byte.  Tables
        are built a run of blocks at a time, a few MiB whatever k is.
        """
        packed, bits = self._packed_rows, self._block_bits()
        blocks, nbytes, words = -(-len(packed) // bits), -(-bits // 8), packed.shape[1]
        basis = np.zeros((blocks, nbytes * 8, words), dtype=np.uint64)
        basis[:, :bits] = np.pad(packed, ((0, blocks * bits - len(packed)), (0, 0))
                                 ).reshape(blocks, bits, words)
        # blocks per run: tables, indices and lookups of 8-byte entries stay
        # at BLOCK_ELEMENTS * 4 bytes (2 MiB) each
        step = max(1, BLOCK_ELEMENTS // (2 * nbytes * words * max(count, 256)))
        acc = np.zeros((count, words), dtype=np.uint64)
        for lo in range(0, blocks, step):
            hi = min(blocks, lo + step)
            tabs = (hi - lo) * nbytes
            rows = basis[lo:hi].reshape(tabs, 8, words)
            tables = np.empty((tabs, 256, words), dtype=np.uint64)
            tables[:, 0] = 0
            for r in range(8):          # XOR doubling over each byte's 8 rows
                np.bitwise_xor(tables[:, :1 << r], rows[:, r, None],
                               out=tables[:, 1 << r:2 << r])
            coefs = draw(lo, hi).astype("<u8", order="C").view(np.uint8)
            offsets = 256 * np.arange(tabs, dtype=np.intp).reshape(hi - lo, nbytes, 1)
            index = np.empty((hi - lo, nbytes, count), dtype=np.intp)
            for t in range(nbytes):     # byte t of each block, as a table row
                np.add(coefs.reshape(hi - lo, count, 8)[:, :, t], offsets[:, t],
                       out=index[:, t])
            hits = np.take(tables.reshape(tabs * 256, words), index.reshape(tabs, count), axis=0)
            acc ^= np.bitwise_xor.reduce(hits, axis=0)
        return acc

    def sample(self, seed: int) -> np.ndarray:
        """Deterministic sample from an integer seed (any size)."""
        if not 0 <= seed < self.num_seeds:
            raise ValueError(f"seed out of range [0, 2^{len(self.G)})")
        bits = self._block_bits()
        blocks = np.array([[(seed >> j) & ((1 << bits) - 1)]
                           for j in range(0, len(self.G), bits)], dtype=np.uint64)
        return self._decode(self._images(lambda lo, hi: blocks[lo:hi], 1))[0]

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n) matrix of samples drawn through ``rng``.

        Equivalent to sampling seeds uniformly: inverse_cdf draws its k
        coefficient blocks in order, ``count`` values per block, and
        binomial_sum 32-bit words per row, the first most significant.
        """
        if self.method == "inverse_cdf":
            return self._decode(self._images(lambda lo, hi: rng.integers(
                0, 1 << self._block_bits(), size=(hi - lo, count), dtype=np.uint64), count))
        raw = rng.integers(0, 1 << 32, size=(count, -(-len(self.G) // 32)), dtype=np.uint32)
        seed_bytes = np.ascontiguousarray(raw[:, ::-1], dtype="<u4").view(np.uint8).T
        return self._decode(self._images(lambda lo, hi: seed_bytes[lo:hi], count))

    def enumerate_samples(self) -> np.ndarray:
        """All samples, one per seed; needs 2^(seed bits) within SUPPORT_BUDGET."""
        if self.num_seeds > config.SUPPORT_BUDGET:
            raise ResourceBudgetError(
                f"2^{len(self.G)} seeds exceed budget {config.SUPPORT_BUDGET}")
        return self._decode(xor_span(self._packed_rows))


@lru_cache(maxsize=None)
def _marginal_variance(q: int) -> float:
    """Variance of the q-level quantile grid, from its lower half: for q a
    power of two, (i + 1/2)/q is dyadic and level q-1-i is exactly minus
    level i."""
    z = _quantiles(np.arange(q // 2), q)
    return float(np.mean(z * z))


def build_kwise_gaussian(n: int, k: int, method: str = "inverse_cdf",
                         resolution: Optional[int] = None) -> GaussianSpace:
    """Construct a bounded-independence Gaussian space on R^n: k-wise
    independent for inverse_cdf, for binomial_sum only matching every
    mixed moment of degree <= 2k (see ``GaussianSpace``)."""
    if not 1 <= k:
        raise InvalidOrderError("k must be >= 1")
    if method == "inverse_cdf":
        q = config.GAUSSIAN_LEVELS_DEFAULT if resolution is None else resolution
        if q < 16:
            raise ConfigurationError("resolution must be >= 16")
        if q & (q - 1):
            raise ConfigurationError("inverse_cdf resolution must be a power of 2")
        width = q.bit_length() - 1
        m = max(width, (n - 1).bit_length())    # a field point per coordinate
        points = gf_elements(n, m)              # refuses m > 24 before the q-level grid
        var = _marginal_variance(q)
        if abs(var - 1.0) > config.GAUSSIAN_VARIANCE_TOL:
            raise ConfigurationError(
                f"resolution q={q} gives marginal variance {var:.4f}, "
                f"outside 1 ± {config.GAUSSIAN_VARIANCE_TOL}")
        G = _evaluation_generator(points, k, m, width)
        return GaussianSpace(n=n, k_claimed=k, method="inverse_cdf", resolution=q, G=G)
    if method == "binomial_sum":
        N = config.BINOMIAL_N_DEFAULT if resolution is None else resolution
        if N < 16:
            raise ConfigurationError("resolution must be >= 16")
        G = _bernoulli_generator(n * N, min(2 * k, n * N), "bch_parity")
        return GaussianSpace(n=n, k_claimed=k, method="binomial_sum", resolution=N, G=G)
    raise ConfigurationError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# file format
#
# The grammar, exactly what ``dump_sample_space`` writes:
#   - a header line `n k num_points weighted:{0,1}`, split on whitespace;
#   - then num_points point lines of n cells each;
#   - a cell is `1` or `-1`, with one space between cells and `\n` after the
#     last one;
#   - in a weighted file, each line ends instead with one space, then the
#     point's exact weight `p/q` (a token ``Fraction`` reads, with no
#     whitespace), then `\n`.
# Nothing else is accepted: no tab, `\r`, doubled, leading or trailing
# space, and no other spelling of an integer.  Only the file's final `\n`
# may be missing.  Files are written and read as bytes, and read a block
# of whole lines (about BLOCK_ELEMENTS bytes) at a time.


def dump_sample_space(space: SampleSpace, path) -> None:
    # a coordinate is an optional "-", then "1", then its separator; the
    # zero byte of a +1 coordinate is dropped
    cells = np.zeros(space.points.shape + (3,), dtype=np.uint8)
    cells[..., 0] = np.where(space.points < 0, ord("-"), 0)
    cells[..., 1] = ord("1")
    cells[..., 2] = ord(" ")
    cells[:, -1, 2] = ord("\n")
    flat = cells.ravel()
    body = flat[flat != 0].tobytes()
    weighted = space.weights is not None
    if weighted:
        body = b"".join(b"%s %d/%d\n" % (coords, w.numerator, w.denominator) for coords, w
                        in zip(body.splitlines(), space.weights))
    with open(path, "wb") as fh:
        fh.write(b"%d %d %d weighted:%d\n" % (space.n, space.k_claimed,
                                               space.num_points, weighted))
        fh.write(body)


def _negative_cells(buf: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Which cells of the point lines ``buf[1:]`` are -1, as a bool array in
    row-major order; None if ``buf[1:]`` is anything but whole lines of n
    cells under the grammar.  ``buf[0]`` is the newline before them.

    Every byte must be a `1`, the separator after a `1` (a space, or a
    newline after every n-th cell) or a `-` before a `1`; those bytes are
    distinct, so counting them proves that nothing else is present.
    """
    ones = np.flatnonzero(buf[1:] == ord("1"))
    separators = np.full(len(ones), ord(" "), dtype=np.uint8)
    separators[n - 1::n] = ord("\n")
    if not np.array_equal(buf[2:][ones], separators):  # buf[1:] ends in "\n"
        return None
    neg = buf[ones] == ord("-")                     # the byte before each 1
    return neg if 2 * len(ones) + np.count_nonzero(neg) == len(buf) - 1 else None


def _weight(token: bytes) -> Fraction:
    """A weight token as ``Fraction`` reads it, less the whitespace it allows."""
    text = token.decode("ascii")
    if text != text.strip():
        raise ValueError(f"weight {text!r} has whitespace")
    return Fraction(text)


def _grammar_error(lines: list[bytes], first: int, n: int, weighted: bool) -> ValueError:
    """The error naming the first of ``lines``, which start at file line
    ``first``, that breaks the grammar."""
    for i, line in enumerate(lines, start=first):
        coords = line
        try:
            if weighted:
                coords, _, token = line.rpartition(b" ")
                _weight(token)
        except (ValueError, ZeroDivisionError) as exc:
            return ValueError(f"line {i}: {exc}")
        cells = coords.split(b" ")
        if len(cells) != n or not all(c in (b"1", b"-1") for c in cells):
            return ValueError(f"line {i}: expected {n} cells of 1 or -1 "
                              f"separated by single spaces, got {line[:80]!r}")
    return ValueError(f"malformed point lines from line {first}")


def _read_points(fh, n: int, num: int,
                 weighted: bool) -> tuple[np.ndarray, Optional[list[Fraction]]]:
    """The (num, n) int8 point table, and the weights, of the point lines
    that follow the header in the binary file ``fh``, read and parsed a
    block of whole lines at a time."""
    table = np.empty(num * n, dtype=np.int8)
    weights: Optional[list[Fraction]] = [] if weighted else None
    filled = 0
    pending = b"\n"        # the newline that ends the last whole line, then the rest
    while True:
        chunk = fh.read(BLOCK_ELEMENTS)
        if not chunk:
            if len(pending) == 1:
                break
            chunk = b"\n"                   # a last line without its newline
        data = pending + chunk
        end = data.rfind(b"\n") + 1
        pending = data[end - 1:]
        if end == 1:                        # a line longer than the block so far
            continue
        if weighted:        # the coordinates through the same parser, then the weights
            parts = [line.rpartition(b" ") for line in data[1:end - 1].split(b"\n")]
            neg = _negative_cells(np.frombuffer(
                b"\n" + b"\n".join(p[0] for p in parts) + b"\n", dtype=np.uint8), n)
            try:
                weights += [_weight(p[2]) for p in parts]
            except (ValueError, ZeroDivisionError):
                neg = None
        else:
            neg = _negative_cells(np.frombuffer(data, dtype=np.uint8)[:end], n)
        if neg is None:
            raise _grammar_error(data[1:end - 1].split(b"\n"), 2 + filled // n, n, weighted)
        if filled + len(neg) > len(table):
            raise ValueError(f"more point lines than the {num} the header declares")
        out = table[filled:filled + len(neg)]
        np.multiply(neg.view(np.int8), np.int8(-2), out=out)
        out += 1
        filled += len(neg)
    if filled < len(table):
        raise ValueError(f"{filled // n} point lines, header declares {num}")
    return table.reshape(num, n), weights


def load_sample_space(path) -> SampleSpace:
    """Read a space file strictly under the grammar above: the header, then
    exactly num_points point lines.  Any deviation raises FormatError; a
    malformed point line is named by its line number."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
            n, k, num = (int(v) for v in header[:3])
            weighted = header[3:] == ["weighted:1"]
            if header[3:] not in (["weighted:0"], ["weighted:1"]) or min(n, num) < 1 or k < 0:
                raise ValueError(f"bad header {header}")
            points, weights = _read_points(fh, n, num, weighted)
        return SampleSpace(n=n, k_claimed=k, points=points, weights=weights,
                           method="file")
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise FormatError(f"sample-space file {path}: {exc}") from None
