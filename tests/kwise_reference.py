"""Slow reference paths for the k-wise spaces, kept as test oracles.

These are the per-seed evaluations the generator-matrix code replaced:
scalar and per-coordinate Horner evaluation over GF(2^m), popcount inner
products for the BCH space, 32-bit seed words assembled into Python ints
for ``binomial_sum``, and a per-subset verifier in Fraction arithmetic;
and the evaluation generator built from full field products, which the
multiply-by-x basis replaced.
They are only fast enough for small instances.  Each derives its field
degree, evaluation points and seed length from (n, k, method) and q by
the constructions' definitions, independently of ``spaces``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from ptffool.gf2 import IRREDUCIBLE, gf_mul_vec, gf_powers, popcount_u64, unpack_bits


def gf_mul(a: int, b: int, m: int) -> int:
    """Product of two elements of GF(2^m), one bit of b at a time."""
    poly = IRREDUCIBLE[m]
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return acc


def gf_pow(a: int, e: int, m: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = gf_mul(result, a, m)
        a = gf_mul(a, a, m)
        e >>= 1
    return result


def evaluation_generator(points, k: int, m: int, width: int) -> np.ndarray:
    """G of the low ``width`` bits of sum_j c_j alpha_i^j, with the basis
    x^b alpha_i^j taken as m full field products, one per b."""
    alpha = np.array(points, dtype=np.uint64)
    basis = gf_mul_vec(gf_powers(alpha, k, m)[:, None, :],
                       np.uint64(1) << np.arange(m, dtype=np.uint64)[:, None], m)
    return unpack_bits(basis.reshape(k * m, len(alpha)), width)


class Construction(NamedTuple):
    n: int
    k: int
    method: str          # "vandermonde_bit" | "bch_parity"
    m: int               # field degree
    eval_points: list[int]
    seed_bits: int


def construction(n: int, k: int, method: str) -> Construction:
    """A Bernoulli space's parameters.  vandermonde_bit evaluates k
    coefficients at 0..n-1 in GF(2^m), m = ceil(log2 n) (1 at n = 1);
    bch_parity pairs floor(k/2) blocks with the odd powers of 1..n in
    GF(2^m), m = ceil(log2(n + 1)), plus a parity bit when k is odd."""
    if method == "vandermonde_bit":
        m = max(1, math.ceil(math.log2(n)))
        return Construction(n, k, method, m, list(range(n)), k * m)
    m = math.ceil(math.log2(n + 1))
    return Construction(n, k, method, m, list(range(1, n + 1)), (k // 2) * m + k % 2)


def inverse_cdf_field(gs) -> tuple[int, list[int]]:
    """(m, evaluation points) of an inverse_cdf space: GF(2^m) holds both
    the log2 q level bits and n distinct points 0..n-1."""
    m = max(round(math.log2(gs.resolution)), math.ceil(math.log2(gs.n)))
    return m, list(range(gs.n))


def underlying(gs) -> Construction:
    """The BCH space of a binomial_sum space: 2k-wise independent (capped
    at its size) over all n*N bits."""
    bits = gs.n * gs.resolution
    return construction(bits, min(2 * gs.k_claimed, bits), "bch_parity")


def _split_seed(cons, seed: int) -> tuple[int, list[int]]:
    """(parity bit, little-endian m-bit blocks) of a Bernoulli seed."""
    parity = 0
    if cons.method == "bch_parity" and cons.k % 2 == 1:
        parity, seed = seed & 1, seed >> 1
    count = cons.k if cons.method == "vandermonde_bit" else cons.k // 2
    mask = (1 << cons.m) - 1
    return parity, [(seed >> (j * cons.m)) & mask for j in range(count)]


def point_from_seed(cons, seed: int) -> np.ndarray:
    """One ±1 point by scalar field arithmetic."""
    parity, blocks = _split_seed(cons, seed)
    out = np.empty(cons.n, dtype=np.int8)
    for i, alpha in enumerate(cons.eval_points):
        if cons.method == "vandermonde_bit":
            acc = 0
            for c in reversed(blocks):
                acc = gf_mul(acc, alpha, cons.m) ^ c
            bit = acc & 1
        else:
            bit = parity
            for j, y in enumerate(blocks):
                bit ^= bin(y & gf_pow(alpha, 2 * j + 1, cons.m)).count("1") & 1
        out[i] = 1 - 2 * bit
    return out


def point_from_generator(G: np.ndarray, seed: int) -> np.ndarray:
    """One ±1 point as the seed's bits times the generator matrix G, mod 2,
    by an integer product: the per-seed form of materializing a space."""
    bits = np.array([(seed >> b) & 1 for b in range(len(G))], dtype=np.int64)
    return (1 - 2 * ((bits @ G) & 1)).astype(np.int8)


def points_for_seeds(cons, seeds: np.ndarray) -> np.ndarray:
    """Points for a uint64 seed array, one coordinate at a time."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    mask = np.uint64((1 << cons.m) - 1)
    parity = np.zeros(len(seeds), dtype=np.uint64)
    if cons.method == "bch_parity" and cons.k % 2 == 1:
        parity, seeds = seeds & np.uint64(1), seeds >> np.uint64(1)
    count = cons.k if cons.method == "vandermonde_bit" else cons.k // 2
    blocks = [(seeds >> np.uint64(j * cons.m)) & mask for j in range(count)]
    out = np.empty((len(seeds), cons.n), dtype=np.int8)
    for i, alpha in enumerate(cons.eval_points):
        if cons.method == "vandermonde_bit":
            acc = np.zeros(len(seeds), dtype=np.uint64)
            for c in reversed(blocks):
                acc = gf_mul_vec(acc, alpha, cons.m) ^ c
            bits = (acc & np.uint64(1)).astype(np.uint8)
        else:
            bits = parity.astype(np.uint8)
            for j, y in enumerate(blocks):
                power = np.uint64(gf_pow(alpha, 2 * j + 1, cons.m))
                bits ^= popcount_u64(y & power) & np.uint8(1)
        out[:, i] = 1 - 2 * bits.astype(np.int8)
    return out


def inverse_cdf_levels(gs, blocks) -> np.ndarray:
    """Horner evaluation of the coefficient blocks at every coordinate."""
    m, points = inverse_cdf_field(gs)
    out = np.empty((len(blocks[0]), gs.n), dtype=np.uint64)
    for i, alpha in enumerate(points):
        acc = np.zeros(len(blocks[0]), dtype=np.uint64)
        for c in reversed(blocks):
            acc = gf_mul_vec(acc, alpha, m) ^ c
        out[:, i] = acc
    return out & np.uint64(gs.resolution - 1)


def _z(levels, q):
    return ndtri((levels.astype(np.float64) + 0.5) / q)


def random_seed_ints(rng, count: int, bits: int) -> list[int]:
    """Uniform Python ints below 2^bits, drawn 32 bits at a time."""
    words = (bits + 31) // 32
    raw = rng.integers(0, 1 << 32, size=(count, words), dtype=np.uint64)
    out = []
    for row in raw:
        v = 0
        for w in row:
            v = (v << 32) | int(w)
        out.append(v & ((1 << bits) - 1))
    return out


def sample_batch(gs, count: int, rng) -> np.ndarray:
    """Gaussian samples drawn through ``rng`` with the same draws as
    ``GaussianSpace.sample_batch``."""
    if gs.method == "inverse_cdf":
        m, _ = inverse_cdf_field(gs)
        blocks = [rng.integers(0, 1 << m, size=count, dtype=np.uint64)
                  for _ in range(gs.k_claimed)]
        return _z(inverse_cdf_levels(gs, blocks), gs.resolution)
    u = underlying(gs)
    out = np.empty((count, gs.n), dtype=np.float64)
    chunk = max(1, (1 << 22) // max(1, u.n))
    done = 0
    while done < count:
        take = min(chunk, count - done)
        seeds = random_seed_ints(rng, take, u.seed_bits)
        pts = (points_for_seeds(u, np.array(seeds, dtype=np.uint64))
               if u.seed_bits < 64 else np.array([point_from_seed(u, s) for s in seeds]))
        z = pts.astype(np.float64).reshape(take, gs.n, gs.resolution)
        out[done:done + take] = z.sum(axis=2) / math.sqrt(gs.resolution)
        done += take
    return out


def sample(gs, seed: int) -> np.ndarray:
    if gs.method == "inverse_cdf":
        m, _ = inverse_cdf_field(gs)
        blocks = [np.array([(seed >> (j * m)) & ((1 << m) - 1)], dtype=np.uint64)
                  for j in range(gs.k_claimed)]
        return _z(inverse_cdf_levels(gs, blocks), gs.resolution)[0]
    rows = point_from_seed(underlying(gs), seed).astype(np.float64)
    return rows.reshape(gs.n, gs.resolution).sum(axis=1) / math.sqrt(gs.resolution)


def verify_per_subset(space, order: int):
    """(passed, subsets_checked, worst_subset, worst_bias, failures), one
    parity at a time in Fraction arithmetic."""
    weights = space.weights or [Fraction(1, space.num_points)] * space.num_points
    cols = space.points.astype(np.int64)
    failures, worst_subset, worst_bias, checked = [], None, Fraction(0), 0
    for size in range(1, order + 1):
        for subset in combinations(range(space.n), size):
            checked += 1
            chi = np.prod(cols[:, subset], axis=1)
            bias = sum((w * int(c) for w, c in zip(weights, chi)), Fraction(0))
            if bias != 0:
                failures.append((subset, bias))
            if abs(bias) > abs(worst_bias):
                worst_bias, worst_subset = bias, subset
    return not failures, checked, worst_subset, worst_bias, failures
