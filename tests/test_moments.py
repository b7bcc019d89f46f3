import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly, random_tracefree_symmetric
from moment_reference import moment_xor_convolution
from ptffool import moments
from ptffool.errors import (ConfigurationError, ContractViolationError,
                            ResourceBudgetError)
from ptffool.poly import DegTwoPoly


def test_second_moment_identity_single(rng):
    A = random_tracefree_symmetric(6, rng)
    rep = moments.eigenbound_ratio(A, 2, strict=False)
    target = 4.0 * sum(A[i, j] ** 2 for i in range(6) for j in range(i + 1, 6))
    assert abs(rep.value - target) <= 1e-12 * abs(target)


def test_exact_moment_odd_orders_are_absolute():
    # odd k reports E[|p|^k]; p = x1 x2 - 2 x3 x4 takes |values| 1,3,3,1
    p = DegTwoPoly.from_terms(4, quad_terms={(0, 1): 1.0, (2, 3): -2.0})
    assert moments.exact_moment_hypercube(p, 1).value == 2.0
    assert moments.exact_moment_hypercube(p, 3).value == (1 + 27 + 27 + 1) / 4


def test_exact_moment_golden_product():
    # (x1 x2)^k is identically 1 for even k, and x1 x2 averages to 0
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    assert moments.exact_moment_hypercube(p, 2).value == 1.0
    assert moments.exact_moment_hypercube(p, 4).value == 1.0
    assert moments.exact_moment_hypercube(p, 1).value == 1.0  # E|x1 x2|


def test_trace_centering():
    # x1^2 contributes its trace on the cube; centering removes it
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 0): 3.0, (0, 1): 1.0})
    raw = moments.exact_moment_hypercube(p, 2, center="none")
    cen = moments.exact_moment_hypercube(p, 2, center="trace")
    assert raw.value == 10.0   # E[(3 + x1 x2)^2]
    assert cen.value == 1.0    # E[(x1 x2)^2]


def test_mc_agrees_with_exact(rng):
    p = random_poly(8, rng)
    exact = moments.exact_moment_hypercube(p, 2).value
    mc = moments.mc_moment_hypercube(p, 2, samples=200_000, seed=11).value
    # 200k samples: generous 5 sigma envelope
    assert abs(mc - exact) < 0.05 * max(1.0, abs(exact))


def test_mc_is_reproducible(rng):
    p = random_poly(6, rng)
    a = moments.mc_moment_hypercube(p, 4, samples=30_000, seed=3)
    b = moments.mc_moment_hypercube(p, 4, samples=30_000, seed=3)
    assert a.value == b.value


def test_eigenbound_holds_on_random_matrices(rng):
    for _ in range(20):
        n = int(rng.integers(3, 11))
        A = random_tracefree_symmetric(n, rng)
        for k in (2, 4, 6):
            rep = moments.eigenbound_ratio(A, k)
            assert rep.passed
            assert rep.ratio <= 128.0


def test_eigenbound_rejects_odd_order(rng):
    A = random_tracefree_symmetric(4, rng)
    with pytest.raises(ConfigurationError):
        moments.eigenbound_ratio(A, 3)


def test_khintchine_golden_single_coordinate():
    # a = e1: sum is a single sign, k-th moment exactly 1, bound k^(k/2)
    a = np.zeros(5)
    a[0] = 1.0
    rep = moments.khintchine_check(a, 4)
    assert rep.value == 1.0
    assert rep.passed


def test_khintchine_uniform_weights():
    # k = 2 is tight: E[(sum a_i x_i)^2] equals |a|^2 exactly
    a = np.full(9, 1.0 / 3.0)
    rep = moments.khintchine_check(a, 2)
    assert abs(rep.value - 1.0) < 1e-12
    assert rep.passed


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([2, 4, 6, 8]))
def test_khintchine_property(salt, k):
    rng = np.random.default_rng(salt)
    n = int(rng.integers(2, 12))
    a = rng.normal(size=n)
    rep = moments.khintchine_check(a, k)
    assert rep.passed
    assert rep.value <= rep.bound * (1 + 1e-12)


def test_moment_series_increasing_even_orders(rng):
    p = random_poly(6, rng, with_linear=False, with_constant=False)
    reps = moments.moment_series(p, [2, 4, 6])
    vals = [r.value for r in reps]
    # normalized: E[q^2]^(k/2) <= E[q^k] for k >= 2 by power mean
    assert vals[0] ** 2 <= vals[1] * (1 + 1e-12)
    assert vals[1] ** (3 / 2) <= vals[2] * (1 + 1e-9) * max(1.0, vals[2])


def test_boundmoment_check_smoke(rng):
    p = random_poly(7, rng, with_linear=False, with_constant=False)
    rep = moments.boundmoment_check(p, 4)
    assert rep.passed


def test_tail_check_modes(rng):
    p = random_poly(8, rng)
    rep = moments.hypercontractive_tail_check(p, t=4.0)
    assert rep.passed
    if rep.applicable:
        assert rep.empirical_tail <= rep.bound + 1e-12


def test_moment_requires_enumerable():
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    with pytest.raises(ConfigurationError):
        moments.exact_moment_hypercube(p, 0)


_coef = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@st.composite
def small_polys(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return DegTwoPoly.from_terms(
        n, draw(_coef),
        dict(enumerate(draw(st.lists(_coef, min_size=n, max_size=n)))),
        dict(zip(pairs, draw(st.lists(_coef, min_size=len(pairs),
                                      max_size=len(pairs))))))


@settings(max_examples=25, deadline=None)
@given(small_polys(), st.integers(min_value=0, max_value=8))
def test_fourier_moment_matches_xor_convolution(p, k):
    """The integer-FWHT oracle equals the rational XOR convolution exactly."""
    assert moments.moment_fourier_exact(p, k) == moment_xor_convolution(p, k)


def test_fourier_moment_exact_value_on_a_dyadic_polynomial():
    # p = 1/2 + x1/4 - 3 x1 x2 over {-1,1}^2 takes -9/4, 15/4, 13/4, -11/4
    p = DegTwoPoly.from_terms(2, 0.5, {0: 0.25}, {(0, 1): -3.0})
    vals = [Fraction(-9, 4), Fraction(15, 4), Fraction(13, 4), Fraction(-11, 4)]
    for k in range(5):
        assert moments.moment_fourier_exact(p, k) == sum(v ** k for v in vals) / 4
    with pytest.raises(ResourceBudgetError):
        moments.moment_fourier_exact(DegTwoPoly(n=13), 2)


def test_exact_moment_folds_the_diagonal_exactly():
    # 2^53 + x1^2 is 2^53 + 1 on the cube, which no float holds
    p = DegTwoPoly.from_terms(1, 2.0 ** 53, quad_terms={(0, 0): 1.0})
    assert moments.exact_moment_hypercube(p, 2).value_exact == (2 ** 53 + 1) ** 2
    assert moment_xor_convolution(p, 2) == (2 ** 53 + 1) ** 2


def test_trace_centering_drops_the_diagonal(rng):
    A = rng.normal(size=(5, 5))
    A = 0.5 * (A + A.T)
    rep = moments.exact_moment_hypercube(DegTwoPoly(n=5, quad=A), 2, center="trace")
    off = A - np.diag(np.diag(A))
    assert rep.value_exact == moments.moment_fourier_exact(DegTwoPoly(n=5, quad=off), 2)
    assert rep.value == pytest.approx(2 * float(np.sum(off ** 2)), rel=1e-12)
