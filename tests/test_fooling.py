from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly
from ptffool import fooling, spaces
from ptffool.errors import ConfigurationError, ResourceBudgetError
from ptffool.poly import DegTwoPoly


def product_poly() -> DegTwoPoly:
    return DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})


def test_sgn_expectation_of_product_is_zero():
    assert fooling.exact_sgn_expectation(product_poly()) == Fraction(0)


def test_sgn_at_zero_is_plus_one():
    # p identically zero: sgn(0) = +1 everywhere
    p = DegTwoPoly.from_terms(2)
    assert fooling.exact_sgn_expectation(p) == Fraction(1)


def test_indicator_is_affine_in_sgn():
    p = random_poly(5, np.random.default_rng(3))
    e = fooling.exact_sgn_expectation(p)
    ind = fooling.indicator_expectation(p)
    assert ind == (1 + e) / 2


def test_deviation_under_exact_space():
    p = product_poly()
    # n = 2 pairwise imposes the full cube, so the deviation is zero
    sp = spaces.SampleSpace(n=2, k_claimed=2,
                            points=np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]],
                                            dtype=np.int8),
                            method="explicit")
    rep = fooling.deviation(p, sp)
    assert rep.deviation == 0.0


def test_lp_product_poly_golden():
    """The two-variable product: a single biased coin on x1 x2 fools
    every 1-wise test, so the LP reaches deviation 1 at k = 1, and
    pairwise independence forces the uniform answer at k = 2."""
    p = product_poly()
    r1 = fooling.worst_case_lp(p, 1)
    r2 = fooling.worst_case_lp(p, 2)
    assert abs(r1.deviation - 1.0) <= 1e-9
    assert abs(r2.deviation - 0.0) <= 1e-9
    assert r1.lp_max == pytest.approx(1.0, abs=1e-9)
    assert r1.lp_min == pytest.approx(-1.0, abs=1e-9)


def test_lp_certificates_verify_exactly():
    p = product_poly()
    for k in (1, 2):
        rep = fooling.worst_case_lp(p, k)
        for cert in (rep.certificate_upper, rep.certificate_lower):
            assert cert.verified
            # rationalized certificate re-measures the LP's gap
            assert abs(float(cert.gap) - cert.lp_gap) <= 1e-6


def test_lp_witness_is_a_valid_distribution():
    p = product_poly()
    rep = fooling.worst_case_lp(p, 1)
    w = rep.witness_max
    assert w is not None
    assert rep.witness_max_check.passed
    total = sum(w.weights)
    assert total == Fraction(1)
    # witness attains the LP value exactly under rational evaluation
    attained = fooling.exact_sgn_expectation(p, w)
    assert abs(float(attained) - rep.lp_max) <= 1e-6


def test_lp_respects_dimension_budget():
    p = random_poly(15, np.random.default_rng(0))
    with pytest.raises(ResourceBudgetError):
        fooling.worst_case_lp(p, 2)


def test_sweep_is_monotone(rng):
    p = random_poly(6, rng)
    reps = fooling.lp_sweep(p, range(1, 5))
    devs = [r.deviation for r in reps]
    assert all(b <= a + 1e-7 for a, b in zip(devs, devs[1:]))


def test_sweep_collapses_at_k_equals_n(rng):
    p = random_poly(4, rng)
    rep = fooling.worst_case_lp(p, 4)
    assert abs(rep.deviation) <= 1e-7


def test_intersection_deviation_two_halfspaces(rng):
    ps = [random_poly(4, rng, with_constant=True) for _ in range(2)]
    rep = fooling.intersection_deviation(ps, 2)
    assert rep.objective == "indicator"
    assert rep.lp_max >= rep.lp_min - 1e-12
    # intersection indicators live in [0,1], so no deviation exceeds 1
    assert rep.deviation <= 1.0 + 1e-12


def test_intersection_rejects_too_many():
    ps = [product_poly()] * 4
    with pytest.raises(ConfigurationError):
        fooling.intersection_deviation(ps, 2)


def test_anticoncentration_probe_exact_mode():
    from ptffool.cube import all_points
    p = DegTwoPoly.from_terms(3, linear={0: 1.0, 1: 1.0, 2: 1.0})
    cube = spaces.SampleSpace(n=3, k_claimed=3,
                              points=all_points(3), method="explicit")
    rep = fooling.anticoncentration_probe(p, eps_prime=0.5, t=0.0,
                                          space=cube)
    assert rep.mode == "space"
    # normalized sums are odd multiples of 1/sqrt(3), never within 0.5 of 0
    assert rep.probability == 0.0
    assert rep.exact == Fraction(0)


def test_anticoncentration_probe_gaussian_mc():
    p = DegTwoPoly.from_terms(2, linear={0: 1.0, 1: 1.0})
    rep = fooling.anticoncentration_probe(p, eps_prime=0.3, t=0.0,
                                          space="gaussian-mc",
                                          samples=40_000, seed=9)
    # Gaussian law: P(|Z| <= 0.3) with Z standard normal after scaling
    from math import erf, sqrt
    want = erf(0.3 / sqrt(2.0))
    assert abs(rep.probability - want) <= 5 * rep.ci_halfwidth + 0.01


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_deviation_order_invariant_random(salt):
    """k-wise deviation never grows with k on any instance."""
    rng = np.random.default_rng(salt)
    p = random_poly(4, rng)
    a = fooling.worst_case_lp(p, 1, emit_witness=False).deviation
    b = fooling.worst_case_lp(p, 3, emit_witness=False).deviation
    assert b <= a + 1e-7


# --------------------------------------------------------------------------
# exact zeros that float evaluation gets wrong


def tie_poly() -> DegTwoPoly:
    """-2^53 + 2^53 x1 + x2 + x3: exactly 0 at (1, 1, -1) and (1, -1, 1),
    where float evaluation returns -1 and 0, and 2 at (1, 1, 1), where it
    returns 0."""
    return DegTwoPoly.from_terms(3, -2.0 ** 53, {0: 2.0 ** 53, 1: 1.0, 2: 1.0})


def test_sgn_values_at_exact_zeros():
    from ptffool.cube import all_points
    p = tie_poly()
    assert fooling.sgn_values(p).tolist() == [1, -1, 1, -1, 1, -1, -1, -1]
    assert fooling.exact_sgn_expectation(p) == Fraction(-1, 4)
    zero = spaces.SampleSpace(n=3, k_claimed=0, points=all_points(3)[[4]],
                              method="explicit")
    assert fooling.exact_sgn_expectation(p, zero) == 1


def test_intersection_membership_at_exact_zeros():
    rep = fooling.intersection_deviation([tie_poly()], 1)
    assert rep.uniform_expectation == Fraction(3, 8)


def test_anticoncentration_probe_at_its_exact_boundary():
    from ptffool.cube import all_points
    # q = x1 + 2^-60 x2 normalizes to itself; with t = 2^-60 and eps' = 1,
    # q - t - eps' is exactly 0 at (1, 1), and |q - t| = 1 - 2^-59 < eps'
    # at (1, -1), where float evaluation rounds q to 1
    p = DegTwoPoly.from_terms(2, linear={0: 1.0, 1: 2.0 ** -60})
    cube = spaces.SampleSpace(n=2, k_claimed=2, points=all_points(2),
                              method="explicit")
    rep = fooling.anticoncentration_probe(p, eps_prime=1.0, t=2.0 ** -60,
                                          space=cube)
    assert rep.exact == Fraction(1, 4)
