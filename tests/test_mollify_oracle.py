"""The radial-table derivative path against the per-point oracle in
``mollify_reference``."""

import math

import numpy as np
import pytest

import mollify_reference
from ptffool import cli, config, mollify

BETAS = [(1, (j,)) for j in range(4)] + [
    (2, (a, b)) for a in range(4) for b in range(4) if a + b <= 3]


@pytest.mark.parametrize("d,beta", BETAS)
def test_deriv_l1_norm_matches_per_point_quadrature(d, beta):
    """Criterion 9's fourteen norms, to 1e-13 relative."""
    got = mollify.deriv_l1_norm(d, beta).value
    want = mollify_reference.deriv_l1_value(d, beta)
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


# The fourteen norms to the last bit.  Their sums run in a fixed order, so
# a drift here means the kernel grid changed (a power or product taken
# another way), which the 1e-13 oracle above would let pass.
L1_NORM_HEX = {
    (1, (0,)): "0x1.ffffcc0ec8593p-1",
    (1, (1,)): "0x1.14c15238197a0p-1",
    (1, (2,)): "0x1.cfc74cca754d9p-2",
    (1, (3,)): "0x1.e3fadd9b68b43p-2",
    (2, (0, 0)): "0x1.fffd4215e77d8p-1",
    (2, (0, 1)): "0x1.03475f1152312p-1",
    (2, (0, 2)): "0x1.994eaf8f2e93ep-2",
    (2, (0, 3)): "0x1.94316609c9267p-2",
    (2, (1, 0)): "0x1.03475f1152312p-1",
    (2, (1, 1)): "0x1.02dcf1f400fe6p-2",
    (2, (1, 2)): "0x1.8cdc4a978d93bp-3",
    (2, (2, 0)): "0x1.994eaf8f2e93ep-2",
    (2, (2, 1)): "0x1.8cdc4a978d93bp-3",
    (2, (3, 0)): "0x1.94316609c9266p-2",
}


def test_deriv_l1_norms_are_pinned_to_the_bit():
    got = {(d, beta): mollify.deriv_l1_norm(d, beta).value.hex() for d, beta in BETAS}
    assert got == L1_NORM_HEX


def test_psi_table_is_built_once_per_dimension(monkeypatch, tmp_path):
    """Two full l1 suites per dimension evaluate psi_0..psi_3 once each."""
    calls = []
    psi_values = mollify._psi_values
    monkeypatch.setattr(mollify, "_psi_values",
                        lambda d, m, rho: calls.append((d, m)) or psi_values(d, m, rho))
    mollify._l1_table.cache_clear()
    for d in (1, 2, 1, 2):
        assert cli.main(["ftmol", "check", "--d", str(d), "--suite", "l1",
                         "--report", str(tmp_path / "l1.json")]) == 0
    assert sorted(calls) == [(d, m) for d in (1, 2) for m in range(4)]


def test_deriv_l1_norm_is_the_same_from_a_cold_table_and_in_any_order():
    """Bit for bit: each norm from a freshly built table, then all of them
    from the warm table in reverse order."""
    cold = {}
    for d, beta in BETAS:
        mollify._l1_table.cache_clear()
        cold[d, beta] = mollify.deriv_l1_norm(d, beta).value.hex()
    warm = {(d, beta): mollify.deriv_l1_norm(d, beta).value.hex()
            for d, beta in reversed(BETAS)}
    assert warm == cold


def test_psi_table_is_read_only():
    for a in mollify._l1_table(2)[2:]:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0


def _radii(rng):
    """Zero, radii on the series branch, and radii on the Bessel branch."""
    cut = config.BHAT_SERIES_CUTOFF
    return np.concatenate([[0.0, 1e-6, 0.3 * cut, 0.999 * cut, cut],
                           rng.uniform(cut, 3.0, 8), rng.uniform(3.0, 60.0, 8)])


@pytest.mark.parametrize("d,beta", BETAS)
def test_kernel_partial_grid_matches_per_point(d, beta):
    rng = np.random.default_rng([d, *beta])
    r = _radii(rng)
    if d == 1:
        omega = np.array([[1.0], [-1.0]])
    else:
        theta = np.concatenate([[0.0, 0.5 * math.pi], rng.uniform(0.0, 2.0 * math.pi, 6)])
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    psi = [mollify._psi_values(d, m, r) for m in range(sum(beta) + 1)]
    got = mollify._kernel_partial_grid(beta, psi, r, omega)
    pts = (r[:, None, None] * omega).reshape(-1, d)
    want = mollify_reference.kernel_partial(d, beta, pts).reshape(got.shape)
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15 * scale)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_transform_at_zero_and_across_the_series_cutoff(d):
    """g(0) = 2 sqrt(C_d) / (2^nu Gamma(nu + 1)), and the series and Bessel
    branches meet at the cutoff."""
    nu = d / 2.0 + 1.0
    g0 = 2.0 * math.sqrt(mollify.bump_norm_const(d)) / (2.0 ** nu * math.gamma(nu + 1.0))
    assert mollify.bhat_closed_form(d, 0.0)[0] == pytest.approx(g0, rel=1e-15)
    cut = config.BHAT_SERIES_CUTOFF
    below, above = mollify.bhat_closed_form(d, [cut * (1 - 1e-12), cut])
    assert below == pytest.approx(above, rel=1e-11)
    pts = np.array([[0.0] * (d - 1) + [t] for t in (-2.5, -cut / 2, 0.0, 0.7)])
    np.testing.assert_array_equal(
        mollify_reference.bhat_partial(d, (0,) * d, pts),
        mollify.bhat_closed_form(d, np.linalg.norm(pts, axis=1)))
