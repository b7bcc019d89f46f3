import math

import numpy as np
import pytest

import mollify_reference
from ptffool import mollify
from ptffool.errors import ConfigurationError


def test_unit_integral_d1():
    rep = mollify.check_unit_integral(1)
    assert rep.passed
    assert abs(rep.value - 1.0) <= 1e-3


def test_unit_integral_d2():
    rep = mollify.check_unit_integral(2)
    assert rep.passed


def test_unit_integral_scale_invariance():
    # B_c is a rescaled copy; total mass cannot depend on c
    for c in (0.5, 2.0, 17.0):
        rep = mollify.check_unit_integral(1, c=c)
        assert rep.passed, (c, rep.value)


def test_kernel_is_nonnegative_and_even():
    xs = np.linspace(-30.0, 30.0, 4001)
    vals = np.array([mollify_reference.kernel_value(1, np.array([x])) for x in xs])
    assert np.all(vals >= -1e-15)
    assert np.allclose(vals, vals[::-1], atol=1e-12)


def test_deriv_l1_zero_order_is_one():
    rep = mollify.deriv_l1_norm(1, (0,))
    assert rep.passed
    assert abs(rep.value - 1.0) <= 2e-3


def test_deriv_l1_bounds_d1():
    for order in (1, 2, 3):
        rep = mollify.deriv_l1_norm(1, (order,))
        assert rep.passed or rep.inconclusive
        if not rep.inconclusive:
            assert rep.value <= 2.0 ** order + 1e-6


def test_deriv_l1_bounds_d2():
    for beta in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
        rep = mollify.deriv_l1_norm(2, beta)
        if not rep.inconclusive:
            assert rep.value <= 2.0 ** sum(beta) + 1e-6


def test_tail_mass_decreases():
    zs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    curve = mollify.tail_mass_curve(1, zs)
    vals = [r.value for r in curve]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tail_mass_quadratic_envelope():
    """Far tails decay like 1/z^2 after the sin^4 factor averages out;
    z^2 * mass should be bounded and roughly stable."""
    zs = [8.0, 16.0, 32.0, 64.0]
    curve = mollify.tail_mass_curve(1, zs)
    scaled = [r.value * r.z ** 2 for r in curve]
    assert max(scaled) < 10.0
    assert max(scaled) / min(scaled) < 16.0


def test_tail_identity_gap():
    for z in (2.0, 8.0):
        rep = mollify.tail_mass(1, z)
        assert rep.identity_gap <= 1e-6
        assert abs((rep.value + rep.inside) - 1.0) <= 2e-3


def test_squared_moment_gamma_vs_quadrature():
    for d in (1, 2):
        alphas = [(0,), (2,)] if d == 1 else [(0, 0), (2, 0), (0, 2)]
        for alpha in alphas:
            rep = mollify.squared_bump_moment(d, alpha)
            assert rep.relative_gap <= 1e-6, (d, alpha, rep.relative_gap)


def test_halfline_boundary_value():
    m = mollify.Mollifier(1, 1.0)
    v = m.mollify(mollify.HalfLine(0.0), [0.0])
    assert abs(v - 0.5) <= 1e-4


def test_halfline_monotone_and_limits():
    m = mollify.Mollifier(1, 2.0)
    xs = np.linspace(-12.0, 12.0, 49)
    vals = [m.mollify(mollify.HalfLine(0.0), [x]) for x in xs]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.05
    assert vals[-1] > 0.95


def test_quadrant_corner_value():
    m = mollify.Mollifier(2, 1.0)
    v = m.mollify(mollify.Quadrant((0.0, 0.0)), [0.0, 0.0])
    assert abs(v - 0.25) <= 1e-3


def test_box_decomposes_into_cdf_differences():
    m = mollify.Mollifier(1, 1.0)
    box = mollify.Box((-1.0,), (1.0,))
    inside = m.mollify(box, [0.0])
    left = m.mollify(mollify.HalfLine(-1.0), [0.0])
    right = m.mollify(mollify.HalfLine(1.0), [0.0])
    assert abs(inside - (left - right)) <= 1e-12


def test_sharpness_increases_with_c():
    # at distance 1 from the boundary, larger c means closer to the
    # true indicator value 1
    vals = [mollify.mollify_eval(mollify.HalfLine(0.0), c, [1.0])
            for c in (1.0, 4.0, 16.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 0.9


def test_mollifier_rejects_bad_scale():
    with pytest.raises(ConfigurationError):
        mollify.Mollifier(1, 0.0)
    with pytest.raises(ConfigurationError):
        mollify.Mollifier(3, 1.0)
