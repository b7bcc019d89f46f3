from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fraction_values, random_poly
from cube_reference import poly_values_gray
from ptffool import config
from ptffool.cube import all_points, poly_values
from ptffool.errors import (ConfigurationError, ContractViolationError,
                            ConvergenceError, DegenerateInputError,
                            FormatError, ResourceBudgetError)
from ptffool.poly import (DegTwoPoly, critical_index, dump_poly,
                          dumps_poly, eigendecompose_symmetric, influences,
                          integer_form, load_poly, loads_poly, regularity,
                          signs, spectral_decompose)


def test_from_terms_monomial_convention():
    # coefficient of x1 x2 is 1, stored split across the symmetric matrix
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    assert p.quad[0, 1] == 0.5
    assert p.evaluate([1, 1]) == 1.0
    assert p.evaluate([1, -1]) == -1.0


def test_square_terms_fold_into_constant_on_cube():
    p = DegTwoPoly.from_terms(3, quad_terms={(0, 0): 2.0, (1, 2): 1.0})
    assert p.trace_fold() == 2.0
    # on {-1,1}^n the square term is constant
    for x in all_points(3):
        assert p.evaluate(x) == 2.0 + x[1] * x[2]


def test_evaluate_matches_block_and_gray_enumeration(rng):
    p = random_poly(6, rng)
    direct = np.array([p.evaluate(x) for x in all_points(6)])
    assert np.allclose(direct, poly_values(p), atol=1e-12)
    assert np.allclose(direct, poly_values_gray(p), atol=1e-9)


def test_fourier_coefficients_match_correlation(rng):
    p = random_poly(5, rng)
    pts = all_points(5).astype(np.float64)
    vals = poly_values(p)
    four = p.fourier()
    for subset, coef in four.items():
        chi = np.prod(pts[:, list(subset)], axis=1) if subset else np.ones(len(pts))
        assert abs(float(np.mean(vals * chi)) - coef) < 1e-10


def test_influences_of_product():
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    inf, total = influences(p)
    assert inf.tolist() == [1.0, 1.0]
    assert total == 2.0


def test_regularity_boundary():
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    assert regularity(p, 0.51).is_regular
    assert not regularity(p, 0.49).is_regular
    assert regularity(p, 0.49).max_ratio == 0.5


def test_regularity_rejects_constant():
    p = DegTwoPoly.from_terms(3, constant=2.0)
    with pytest.raises(DegenerateInputError):
        regularity(p, 0.1)


def test_critical_index_heavy_head_flat_tail():
    # one dominant variable over a flat tail of eight equal weights:
    # stripping the head leaves ratio 1/8, regular at tau = 0.2
    p = DegTwoPoly.from_terms(
        9, linear={i: (8.0 if i == 0 else 0.5) for i in range(9)})
    res = critical_index(p, tau=0.2)
    assert res.index == 1
    assert not res.no_finite_index


def test_critical_index_never_regular_flag():
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    res = critical_index(p, tau=0.2)
    assert res.no_finite_index
    assert res.index == 2


def test_eigendecompose_golden_2x2():
    dec = eigendecompose_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(dec.eigenvalues), [-1.0, 1.0], atol=1e-12)
    R = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    assert np.allclose(R, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_eigendecompose_reconstructs(salt):
    rng = np.random.default_rng(salt)
    n = int(rng.integers(2, 9))
    A = rng.normal(size=(n, n))
    A = 0.5 * (A + A.T)
    dec = eigendecompose_symmetric(A)
    R = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    assert np.max(np.abs(R - A)) < 1e-9
    # orthogonality
    I = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(I - np.eye(n))) < 1e-9


def test_spectral_decompose_bands(rng):
    p = random_poly(8, rng)
    dec = spectral_decompose(p, delta=0.7)
    rep = dec.invariant_report(p.quad)
    assert all(rep.values()), rep


def test_spectral_decompose_delta_guard():
    p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
    with pytest.raises(ConfigurationError):
        spectral_decompose(p, 0.0)


def test_scale_multiplies_everything(rng):
    p = random_poly(4, rng)
    q = p.scale(3.0)
    for x in all_points(4)[::5]:
        assert abs(q.evaluate(x) - 3.0 * p.evaluate(x)) < 1e-12


def test_text_format_round_trip(tmp_path, rng):
    p = random_poly(5, rng)
    path = tmp_path / "p.poly"
    dump_poly(p, path)
    q = load_poly(path)
    assert q.n == p.n
    assert np.array_equal(q.linear, p.linear)
    assert np.array_equal(q.quad, p.quad)
    assert q.constant == p.constant
    assert dumps_poly(q) == dumps_poly(p)


def test_text_format_rejects_garbage():
    with pytest.raises(FormatError):
        loads_poly("garbage\n")
    with pytest.raises(FormatError):
        loads_poly("3\nQ 2 1 1.0\n")      # needs i <= j
    with pytest.raises(FormatError):
        loads_poly("3\nL 4 1.0\n")        # out of range
    with pytest.raises(FormatError):
        loads_poly("")


def test_asymmetric_quad_rejected():
    with pytest.raises(ContractViolationError):
        DegTwoPoly(n=2, quad=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_quad_halves_are_stored_bit_identical():
    """Halves that differ only in the sign of a zero are stored as the upper
    triangle copied into both halves would store them: every zero +0.0."""
    q = np.array([[-0.0, 0.0, -0.5], [-0.0, 2.0, 0.0], [-0.5, -0.0, -0.0]])
    stored = DegTwoPoly(n=3, quad=q).quad
    upper_twice = np.triu(q) + np.triu(q, 1).T
    assert stored.tobytes() == upper_twice.tobytes() == stored.T.tobytes()
    assert not np.signbit(stored[stored == 0.0]).any()


@pytest.mark.parametrize("label,matrix", [
    ("non-square", np.zeros((2, 3))),
    ("asymmetric", np.array([[1.0, 2.0], [0.0, 1.0]])),
    ("NaN entry", np.array([[1.0, np.nan], [np.nan, 1.0]])),
])
def test_eigendecompose_rejects_bad_matrices(label, matrix):
    with pytest.raises(ContractViolationError):
        eigendecompose_symmetric(matrix)


def test_eigendecompose_size_cap_checks_shape_before_solving():
    # a zero-stride view: the shape of a 2049 x 2049 matrix, one float of memory
    stub = np.broadcast_to(np.float64(0.0), (config.EIGEN_MAX_N + 1,) * 2)
    with pytest.raises(ResourceBudgetError):
        eigendecompose_symmetric(stub)


def test_eigendecompose_maps_lapack_failure(monkeypatch):
    def fail(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        eigendecompose_symmetric(np.eye(2))


def test_eigendecompose_orders_eigenvalues_descending():
    dec = eigendecompose_symmetric(np.diag([1.0, -3.0, 2.0]))
    assert dec.eigenvalues.tolist() == [2.0, 1.0, -3.0]
    assert np.array_equal(np.abs(dec.eigenvectors), np.eye(3)[:, [2, 0, 1]])


# --------------------------------------------------------------------------
# exact signs


_dyadic = st.builds(lambda m, e: m * 2.0 ** e,
                    st.integers(-64, 64), st.integers(-30, 70))


@st.composite
def _tight_polys(draw):
    """Polynomials whose float values round or hit exact zeros: random
    dyadic coefficients over a wide exponent range, a(x1x2 - x3x4) + b,
    and -2^53 s + 2^53 x1 + x2 + x3 plus small terms."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "cancel", "2^53"]))
    linear, quad = {}, {}
    if kind == "random":
        constant = draw(_dyadic)
        linear = {i: draw(_dyadic) for i in range(n) if draw(st.booleans())}
        quad = {(i, j): draw(_dyadic) for i in range(n) for j in range(i, n)
                if draw(st.booleans())}
    elif kind == "cancel" and n >= 4:
        a = draw(_dyadic)
        constant = draw(st.sampled_from([0.0, a, -a, 2 * a, draw(_dyadic)]))
        quad = {(0, 1): a, (2, 3): -a}
    else:
        constant = -(2.0 ** 53) * draw(st.sampled_from([1, -1, 3]))
        linear = {0: 2.0 ** 53, **{i: draw(_dyadic) for i in range(1, n)}}
        if n >= 2:
            quad[(0, 1)] = draw(st.sampled_from([0.0, 1.0, 2.0 ** 52]))
            quad[(n - 1, n - 1)] = draw(_dyadic)
    offset = draw(st.one_of(st.just(0), _dyadic,
                            st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                                      st.integers(1, 10 ** 6))))
    return DegTwoPoly.from_terms(n, constant, linear, quad), offset


@settings(max_examples=80, deadline=None)
@given(_tight_polys())
def test_signs_match_fraction_evaluation(case):
    p, offset = case
    points = all_points(p.n)
    expected = [(v > offset) - (v < offset) for v in fraction_values(p, points)]
    got = signs(p, points, offset)
    assert got.dtype == np.int8 and got.tolist() == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 2.0 ** 70, 2.0 ** 1023, 2.0 ** -1060])
def test_signs_exact_zeros_on_half_the_cube(scale):
    # x1x2 - x3x4 vanishes on half the cube; 2^70 needs Python ints in the
    # exact path, and 2^1023 (whose magnitudes overflow a float sum) and
    # 2^-1060 (subnormal) skip the float filter
    p = DegTwoPoly.from_terms(4, quad_terms={(0, 1): scale, (2, 3): -scale})
    pts = all_points(4)
    assert signs(p, pts).tolist() == (pts[:, 0] * pts[:, 1]
                                      - pts[:, 2] * pts[:, 3]).clip(-1, 1).tolist()


@pytest.mark.parametrize("n", [9, 17])
def test_signs_where_rounding_errors_accumulate(n):
    # 2^53 plus n - 1 ones, less their exact sum: each 1 added to 2^53 may
    # round away, so the float error grows with n; a bound without the
    # factor n lets some summation order through with the wrong sign
    X = np.ones((1, n), dtype=np.int8)
    for pos in range(n):
        lin = {i: 1.0 for i in range(n)}
        lin[pos] = 2.0 ** 53
        p = DegTwoPoly.from_terms(n, -(2.0 ** 53) - (n - 1), lin)
        pairs = {(0, j): 1.0 for j in range(1, n)}
        pairs[(0, max(pos, 1))] = 2.0 ** 53
        q = DegTwoPoly.from_terms(n, -(2.0 ** 53) - (n - 2), {}, pairs)
        for poly in (p, q):
            v = fraction_values(poly, X)[0]
            assert signs(poly, X).tolist() == [(v > 0) - (v < 0)]


def test_integer_form_folds_the_diagonal_exactly():
    p = DegTwoPoly.from_terms(2, 2.0 ** 53, {1: 0.5}, {(0, 0): 1.0, (0, 1): 3.0})
    den, constant, linear, pairs = integer_form(p, Fraction(1, 3))
    assert (den, constant) == (6, 6 * (2 ** 53 + 1) - 2)
    assert linear.tolist() == [0, 3] and pairs.tolist() == [[0, 18], [0, 0]]


def test_multilinear_evaluation_folds_the_diagonal(rng):
    p = random_poly(5, rng)
    p = DegTwoPoly(n=5, constant=p.constant, linear=p.linear,
                   quad=p.quad + np.diag(rng.normal(size=5)))
    G = rng.normal(size=(7, 5))
    off = p.quad - np.diag(np.diag(p.quad))
    direct = [p.constant + p.trace_fold() + p.linear @ g + g @ off @ g for g in G]
    assert np.allclose(p.evaluate_multilinear_many(G), direct, atol=1e-12)
    pts = all_points(5)
    assert np.allclose(p.evaluate_multilinear_many(pts), p.evaluate_many(pts),
                       atol=1e-12)
