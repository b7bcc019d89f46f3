"""The fooling LP's two forms against each other.

The point-mass form has one dense ±1 row per parity of order <= k; the
transform form reaches the same rows through the butterfly stages of the
Walsh-Hadamard transform.  Each form is forced in turn by replacing the
private form rule, and both must give the same optima, certificates that
hold at every cube point in integers, and witnesses that repair exactly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly
from ptffool import config, cube, fooling, spaces
from ptffool.poly import signs

OPTIMUM_TOL = 1e-9


def _spy_sides(monkeypatch) -> list:
    """Record the LP sides that every ``_solve_lp`` call returns."""
    seen = []
    solve = fooling._solve_lp

    def spy(*args, **kwargs):
        report, sides = solve(*args, **kwargs)
        seen.extend(sides)
        return report, sides

    monkeypatch.setattr(fooling, "_solve_lp", spy)
    return seen


def _certificate_holds(cert, target: np.ndarray, n: int) -> bool:
    """q >= target (upper) or q <= target (lower) at every cube point, in
    integers over the certificate's 2^32 grid, by a product of coordinates
    per coefficient (no transform)."""
    points = cube.all_points(n).astype(np.int64)
    q = np.zeros(1 << n, dtype=object)
    for subset, c in cert.coefficients.items():
        num = c * config.CERT_DENOMINATOR
        assert num.denominator == 1
        chi = np.prod(points[:, list(subset)], axis=1) if subset else 1
        q = q + int(num) * chi
    s = target.astype(object) * config.CERT_DENOMINATOR
    return bool(np.all(q >= s) if cert.direction == "upper" else np.all(q <= s))


def _check_certificates(rep, target: np.ndarray, n: int) -> None:
    for cert in (rep.certificate_upper, rep.certificate_lower):
        assert cert.verified
        assert _certificate_holds(cert, target, n)


def _check_witnesses(sides, k: int) -> None:
    for side in sides:
        witness, why = fooling._repair_witness(side)
        assert witness is not None, why
        assert spaces.verify_kwise_exact(witness, k).passed


def _both_forms(monkeypatch, run):
    """run() once per form: (point-mass result, transform result)."""
    out = []
    for transform in (False, True):
        with monkeypatch.context() as m:
            m.setattr(fooling, "_transform_form", lambda n, k, t=transform: t)
            out.append(run(m))
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_worst_case_lp_forms_agree(n, data, seed):
    k = data.draw(st.integers(1, n), label="k")
    p = random_poly(n, np.random.default_rng(seed))
    target = fooling.sgn_values(p)
    with pytest.MonkeyPatch.context() as monkeypatch:
        point_mass, transform = _both_forms(
            monkeypatch, lambda m: fooling.worst_case_lp(p, k))
    for rep in (point_mass, transform):
        _check_certificates(rep, target, n)
        assert not rep.witness_repair_failed, rep.witness_repair_reason
        assert rep.witness_max_check.passed and rep.witness_min_check.passed
    assert abs(point_mass.lp_max - transform.lp_max) <= OPTIMUM_TOL
    assert abs(point_mass.lp_min - transform.lp_min) <= OPTIMUM_TOL


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), count=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_intersection_lp_forms_agree(n, data, count, seed):
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    ps = [random_poly(n, rng) for _ in range(count)]
    points = cube.all_points(n)
    member = np.ones(1 << n, dtype=np.int64)
    for q in ps:
        member &= (signs(q, points) >= 0).astype(np.int64)

    def run(m):
        sides = _spy_sides(m)
        return fooling.intersection_deviation(ps, k), sides

    with pytest.MonkeyPatch.context() as monkeypatch:
        (point_mass, pm_sides), (transform, tf_sides) = _both_forms(monkeypatch, run)
    for rep, sides in ((point_mass, pm_sides), (transform, tf_sides)):
        _check_certificates(rep, member, n)
        _check_witnesses(sides, k)
    assert abs(point_mass.lp_max - transform.lp_max) <= OPTIMUM_TOL
    assert abs(point_mass.lp_min - transform.lp_min) <= OPTIMUM_TOL


@pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (5, 5), (6, 3)])
def test_butterfly_rows_are_the_parity_rows(n, k):
    """Every stage solved forward from w leaves the last rows equal to the
    point-mass rows times w, and every stage row at zero."""
    masks = np.array([0] + [cube.subset_mask(s) for s in cube.subsets_up_to(n, k)],
                     dtype=np.uint64)
    w = np.random.default_rng(n * 10 + k).integers(-9, 10, size=1 << n)
    z, stages = w, [w]
    for i in range(1, n):                 # z_i: butterflies of half-width 2^(i-1)
        pairs = z.reshape(-1, 2, 1 << (i - 1))
        z = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]],
                     axis=1).reshape(-1)
        stages.append(z)
    x = np.concatenate(stages)
    got = fooling._butterfly_rows(n, masks) @ x
    want = fooling._parity_rows(masks, np.arange(1 << n, dtype=np.uint64)).astype(np.int64) @ w
    assert not got[:-masks.size].any()
    assert np.array_equal(got[-masks.size:], want)


def test_form_rule():
    assert not fooling._transform_form(10, 3)
    assert fooling._transform_form(10, 4)


def test_certificate_evaluation_past_int64():
    """Dual numerators whose absolute sum reaches 2^63 are evaluated in
    Python ints: q = 2^30 + 2^29 (x0 - x1) is 2^31 at x = (1, -1), a
    numerator of 2^63 that int64 would wrap to -2^63, below s there."""
    side = fooling._LpSide(
        sense="max", optimum=0.0, weights=np.zeros(4),
        dual=np.array([-2.0 ** 30, -2.0 ** 29, 2.0 ** 29]), subsets=[(0,), (1,)],
        masks=np.array([0, 1, 2], dtype=np.uint64),
        objective_values=np.array([1, -1, -1, 1]), uniform_expectation=Fraction(0),
        k=1, n=2)
    cert = fooling.sandwich_from_dual(side)
    assert cert.slack_added == 0
    assert cert.coefficients == {(): 2 ** 30, (0,): 2 ** 29, (1,): -2 ** 29}
