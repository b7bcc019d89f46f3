"""Slow reference path for exact moments, kept as a test oracle.

This is the rational XOR convolution the integer Walsh-Hadamard oracle in
``moments.moment_fourier_exact`` replaced: chi_S * chi_T = chi_{S xor T},
so multiplying Fourier expansions is a convolution over subset bitmasks,
and the mean of p^k is the empty-mask coefficient of its k-th power.  It
is only fast enough for small instances.
"""

from __future__ import annotations

from fractions import Fraction

from ptffool.cube import subset_mask
from ptffool.poly import DegTwoPoly


def moment_xor_convolution(p: DegTwoPoly, k: int) -> Fraction:
    """E[p(x)^k] by k rational convolutions of p's Fourier expansion."""
    base: dict[int, Fraction] = {0: Fraction(p.constant)}
    for i in range(p.n):
        base[0] += Fraction(p.quad[i, i])          # x_i^2 = 1, folded exactly
        base[subset_mask((i,))] = Fraction(p.linear[i])
        for j in range(i + 1, p.n):
            base[subset_mask((i, j))] = 2 * Fraction(p.quad[i, j])
    acc: dict[int, Fraction] = {0: Fraction(1)}
    for _ in range(k):
        nxt: dict[int, Fraction] = {}
        for m1, c1 in acc.items():
            for m2, c2 in base.items():
                nxt[m1 ^ m2] = nxt.get(m1 ^ m2, Fraction(0)) + c1 * c2
        acc = {m: c for m, c in nxt.items() if c != 0}
    return acc.get(0, Fraction(0))
