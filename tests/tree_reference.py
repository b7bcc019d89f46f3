"""The path-based exact restriction that restriction trees used before
they carried it down the tree, kept as the oracle for ``tree._ExactForm``.

Each call restricts p's integer form from the root along a whole path, in
object-dtype (Python int) matrix products: n^2 big-int operations a call,
against the O(n) step the tree takes per node.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ptffool.errors import ConfigurationError
from ptffool.poly import DegTwoPoly, integer_form


class ExactForm:
    """D p(x) = c + <l, x> + sum_{i<j} U_ij x_i x_j + sum_i d_i x_i^2 in Python
    ints, restricted along any path exactly.  The diagonal d = D diag(Q)
    is kept apart so that display polynomials keep it on free variables."""

    def __init__(self, p: DegTwoPoly):
        den, c, self.lin, pairs = integer_form(p)
        self.quad, self.den = p.quad, den
        self.diag = np.array([int(Fraction(v) * den)
                              for v in np.diag(p.quad).tolist()], dtype=object)
        self.c = c - sum(self.diag)
        self.pairs = pairs + pairs.T
        self.squares = self.pairs * self.pairs

    def restrict(self, path):
        """(c, l, Inf, free) of D p_rho, where p_rho fixes x_v = s for each
        (v, s) on ``path``; Inf_i = l_i^2 + sum_j U_ij^2 over free j."""
        x = np.zeros(len(self.lin), dtype=object)
        for v, s in path:
            x[v] = s
        free = x == 0
        c = self.c + sum(self.diag[~free]) + self.lin @ x + x @ self.pairs @ x // 2
        lin = (self.lin + self.pairs @ x) * free
        inf = (lin * lin + self.squares[:, free].sum(axis=1)) * free
        return c, lin, inf, free

    def display(self, path) -> tuple[DegTwoPoly, bool]:
        """p_rho, each coefficient rounded once, and whether any rounding changed."""
        c, lin, _, free = self.restrict(path)
        exact = [c, *lin.tolist()]
        try:
            rounded = [v / self.den for v in exact]    # int / int rounds once
        except OverflowError:
            raise ConfigurationError(
                f"p restricted along {list(path)} overflows a float") from None
        quad = np.where(np.outer(free, free), self.quad, 0.0)
        ratios = [f.as_integer_ratio() for f in rounded]
        return (DegTwoPoly(len(lin), rounded[0], np.array(rounded[1:]), quad),
                any(a * self.den != v * b for v, (a, b) in zip(exact, ratios)))
