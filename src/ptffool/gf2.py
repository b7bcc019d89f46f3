"""Arithmetic in the binary fields GF(2^m) for m up to 24, and linear maps
over GF(2).

Field elements are plain integers in [0, 2^m) interpreted as polynomials
over GF(2); multiplication is carry-less followed by reduction modulo a
fixed irreducible polynomial, vectorized over uint64 arrays.  A linear
map over GF(2) is a 0/1 uint8 generator matrix G (input bits x output
bits): ``xor_span`` gives the image of every input, ``mod2_matmul`` the
images of given inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# One irreducible polynomial per degree, written with the leading x^m bit
# included.  These are the classic low-weight (tri/pentanomial) choices
# from the standard LFSR tables; tests check products against a scalar oracle.
IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
    21: 0b1000000000000000000101,
    22: 0b10000000000000000000011,
    23: 0b100000000000000000100001,
    24: 0b1000000000000000010000111,
}

MAX_DEGREE = max(IRREDUCIBLE)

#: Most entries of any float32 operand or product in one mod2_matmul step
#: (2 MiB), so temporaries stay at a few MB whatever the row count.
BLOCK_ELEMENTS = 1 << 19


def _check_degree(m: int) -> None:
    if m not in IRREDUCIBLE:
        raise ConfigurationError(
            f"field degree m={m} unsupported (1 <= m <= {MAX_DEGREE})")


def gf_mul_vec(a, b, m: int) -> np.ndarray:
    """Elementwise product of field elements in GF(2^m).

    ``b`` is one element or an array that broadcasts against ``a``.  Runs
    the schoolbook shift-and-xor over the m bits of ``b`` with a
    reduction step per shift, so intermediate values stay below 2^(m+1)
    and uint64 never overflows for m <= 24.
    """
    _check_degree(m)
    cur = np.array(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    acc = np.zeros(np.broadcast_shapes(cur.shape, b.shape), dtype=np.uint64)
    for bit in range(m):
        acc ^= cur * ((b >> np.uint64(bit)) & np.uint64(1))
        cur = gf_mul_x(cur, m)
    return acc


def gf_mul_x(a: np.ndarray, m: int) -> np.ndarray:
    """a * x in GF(2^m), elementwise: one shift and one reduction step."""
    a = a << np.uint64(1)
    return a ^ (a >> np.uint64(m)) * np.uint64(IRREDUCIBLE[m])


def gf_powers(base, count: int, m: int) -> np.ndarray:
    """Table of shape (count, len(base)) whose row j is base**j,
    elementwise, built by doubling (two products per doubling)."""
    step = np.asarray(base, dtype=np.uint64)
    table = np.ones((1,) + step.shape, dtype=np.uint64)
    while len(table) < count:
        table = np.concatenate([table, gf_mul_vec(table, step, m)])
        step = gf_mul_vec(step, step, m)
    return table[:count]


def gf_elements(count: int, m: int, *, nonzero: bool = False) -> list[int]:
    """The first ``count`` distinct field elements, optionally skipping 0."""
    _check_degree(m)
    start = 1 if nonzero else 0
    if start + count > (1 << m):
        raise ConfigurationError(f"GF(2^{m}) has only {(1 << m) - start} usable "
                                 f"elements, need {count}")
    return list(range(start, start + count))


def unpack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of each entry of a 2-D uint64 array, least
    significant first, laid out entry after entry along each row."""
    v = np.ascontiguousarray(values, dtype="<u8")
    bits = np.unpackbits(v.view(np.uint8).reshape(v.shape + (8,)), axis=-1,
                         bitorder="little")
    return bits[..., :width].reshape(v.shape[0], v.shape[1] * width)


def xor_span(G: np.ndarray) -> np.ndarray:
    """Row s is the XOR of the rows of G at the set bits of s, for every
    s < 2^rows(G): the image of every seed, by XOR doubling."""
    out = np.zeros((1 << G.shape[0], G.shape[1]), dtype=np.uint8)
    for b, row in enumerate(G):
        np.bitwise_xor(out[:1 << b], row, out=out[1 << b:2 << b])
    return out


def mod2_matmul(bits: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(bits @ G) mod 2 for 0/1 uint8 matrices, exactly.

    float32 BLAS is exact here because each block sums fewer than 2^24
    products of 0 and 1.  Blocks of rows and of the inner dimension keep
    every float32 operand and product at BLOCK_ELEMENTS entries or fewer.
    """
    rows, inner = bits.shape
    row_step = max(1, BLOCK_ELEMENTS // max(1, G.shape[1]))
    step = max(1, min((1 << 24) - 1,
                      BLOCK_ELEMENTS // max(1, min(rows, row_step), G.shape[1])))
    out = np.zeros((rows, G.shape[1]), dtype=np.uint8)
    for lo in range(0, inner, step):
        block = G[lo:lo + step].astype(np.float32)
        for r in range(0, rows, row_step):
            part = bits[r:r + row_step, lo:lo + step].astype(np.float32) @ block
            out[r:r + row_step] ^= (part.astype(np.int32) & 1).astype(np.uint8)
    return out


_POPCOUNT_16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                        dtype=np.uint8)


def popcount_u64(v: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array."""
    v = v.astype(np.uint64, copy=False)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(v).astype(np.uint8)
    out = _POPCOUNT_16[(v & np.uint64(0xFFFF)).astype(np.uint32)].astype(np.uint32)
    for shift in (16, 32, 48):
        out += _POPCOUNT_16[((v >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.uint32)]
    return out.astype(np.uint8)
