from fractions import Fraction

import numpy as np
import pytest

from ptffool.poly import DegTwoPoly, regularity


def random_poly(n: int, rng: np.random.Generator, with_linear: bool = True,
                with_constant: bool = True) -> DegTwoPoly:
    A = rng.normal(size=(n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    lin = rng.normal(size=n) if with_linear else np.zeros(n)
    const = float(rng.normal()) if with_constant else 0.0
    return DegTwoPoly(n=n, constant=const, linear=lin, quad=A)


def fraction_values(p: DegTwoPoly, points) -> list[Fraction]:
    """p at each ±1 row in Fractions, straight from its stored floats."""
    out = []
    for x in np.asarray(points).tolist():
        v = Fraction(p.constant)
        for i in range(p.n):
            v += Fraction(p.linear[i]) * x[i]
            for j in range(p.n):
                v += Fraction(p.quad[i, j]) * x[i] * x[j]
        out.append(v)
    return out


def random_regular_poly(n: int, tau: float, rng: np.random.Generator,
                        tries: int = 500) -> DegTwoPoly:
    """Rejection-sample a polynomial whose max influence ratio is below tau.

    Gaussian coefficients spread influence quite evenly, so for tau
    comfortably above 1/n this succeeds within a few draws.
    """
    for _ in range(tries):
        p = random_poly(n, rng)
        if regularity(p, tau).is_regular:
            return p
    raise RuntimeError(f"no tau={tau} regular draw in {tries} tries")


def random_tracefree_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260821)
