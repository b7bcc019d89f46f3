"""The fooling LP's two forms against the dense parity-row LP.

The solver states k-wise independence by one sparse row per set S of at
most k coordinates, Pr[x_i = -1 for all i in S] = 2^-|S|, or, when those
rows are more than half the cube, by the kernel of those rows, from the
certificate's side.  The oracle here is the dense point-mass LP: one ±1
row per parity of order <= k, built from ``cube.parity_column`` and
solved by HiGHS's dual simplex.  Both must give the same optima, and the
solver's certificates must hold at every cube point in integers and its
witnesses repair exactly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_poly
from ptffool import config, cube, fooling, spaces
from ptffool.poly import signs

OPTIMUM_TOL = 1e-9


def _masks(n: int, k: int) -> np.ndarray:
    return np.array([0] + [cube.subset_mask(s) for s in cube.subsets_up_to(n, k)],
                    dtype=np.uint64)


def _parities(n: int, k: int) -> np.ndarray:
    """chi_S over the cube, one row per subset of order <= k in the order of
    :func:`_masks`, the empty set's first."""
    return np.array([cube.parity_column(n, s) for s in [()] + cube.subsets_up_to(n, k)],
                    dtype=np.int64)


def _dense_optima(values: np.ndarray, n: int, k: int) -> tuple[float, float]:
    """(max, min) of E_w[values] over w >= 0 with every parity row of order
    <= k at its uniform value, by the dense LP."""
    from scipy.optimize import linprog

    A = _parities(n, k)
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    s = values.astype(np.float64)
    out = []
    for sign in (-1.0, 1.0):
        res = linprog(sign * s, A_eq=A.astype(np.float64), b_eq=b, bounds=(0.0, None),
                      method="highs-ds")
        assert res.status == 0, res.message
        out.append(sign * res.fun)
    return out[0], out[1]


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


def _check_against_oracle(rep, target: np.ndarray, n: int, k: int) -> None:
    lp_max, lp_min = _dense_optima(target, n, k)
    assert abs(rep.lp_max - lp_max) <= OPTIMUM_TOL
    assert abs(rep.lp_min - lp_min) <= OPTIMUM_TOL
    for cert in (rep.certificate_upper, rep.certificate_lower):
        assert cert.verified
        assert _certificate_holds(cert, target, n)


def _check_witnesses(sides, k: int) -> None:
    for side in sides:
        witness, why = fooling._repair_witness(side)
        assert witness is not None, why
        assert spaces.verify_kwise_exact(witness, k).passed


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_worst_case_lp_forms_agree(n, data, seed):
    k = data.draw(st.integers(1, n), label="k")
    p = random_poly(n, np.random.default_rng(seed))
    rep = fooling.worst_case_lp(p, k)
    _check_against_oracle(rep, fooling.sgn_values(p), n, k)
    assert not rep.witness_repair_failed, rep.witness_repair_reason
    assert rep.witness_max_check.passed and rep.witness_min_check.passed


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), count=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_intersection_lp_forms_agree(n, data, count, seed):
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    ps = [random_poly(n, rng) for _ in range(count)]
    points = cube.all_points(n)
    member = np.ones(1 << n, dtype=np.int64)
    for q in ps:
        member &= (signs(q, points) >= 0).astype(np.int64)
    with pytest.MonkeyPatch.context() as monkeypatch:
        sides = _spy_sides(monkeypatch)
        rep = fooling.intersection_deviation(ps, k)
    _check_against_oracle(rep, member, n, k)
    _check_witnesses(sides, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_marginal_rows_are_parity_rows_by_inclusion_exclusion(n):
    """2^|S| AND_S = sum over T <= S of (-1)^|T| chi_T, in integers, for
    every subset S of every order."""
    masks = _masks(n, n)
    marginal = fooling._marginal_rows(masks, np.arange(1 << n, dtype=np.uint64)).toarray()
    assert set(np.unique(marginal)) <= {0.0, 1.0}
    marginal = marginal.astype(np.int64)
    parity = _parities(n, n)
    row_of = {int(m): i for i, m in enumerate(masks)}
    for S, i in row_of.items():
        want = sum((-1) ** bin(T).count("1") * parity[row_of[T]]
                   for T in row_of if T & S == T)
        assert np.array_equal(marginal[i] << bin(S).count("1"), want)


@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_rows_span_the_kernel_of_the_marginal_rows(n):
    """For every k where the solver takes the kernel form (0 < K < R, with
    K = 2^n - R): the R marginal rows times V are 0 in integers, and V has
    full column rank K, because its rows x = T, taken in order of |T|, form
    a unit lower triangular block."""
    points = np.arange(1 << n, dtype=np.uint64)
    regime = [k for k in range(n + 1) if 0 < points.size - _masks(n, k).size < _masks(n, k).size]
    assert regime
    for k in regime:
        masks = _masks(n, k)
        Vt = fooling._kernel_rows(n, k).toarray()
        assert set(np.unique(Vt)) <= {-1.0, 0.0, 1.0}
        Vt = Vt.astype(np.int64)
        assert Vt.shape == (points.size - masks.size, points.size)
        marginal = fooling._marginal_rows(masks, points).toarray().astype(np.int64)
        assert not (marginal @ Vt.T).any()
        tops = np.array([T for T in range(1 << n) if bin(T).count("1") > k])
        order = np.argsort([bin(T).count("1") for T in tops], kind="stable")
        block = Vt[order][:, tops[order]]
        assert np.array_equal(block, np.tril(block))
        assert np.all(np.diagonal(block) == 1)


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
