"""Self-tests for the benchmark's oracles, on cases small enough to check
by hand.  Each oracle must accept a right answer and reject a wrong one.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import itertools
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def naive_transform(f, n):
    out = []
    for mask in range(1 << n):
        out.append(sum(int(f[x]) * (-1) ** bin(x & mask).count("1")
                       for x in range(1 << n)))
    return out


def test_fwht_matches_the_definition():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        f = rng.integers(-5, 6, size=1 << n)
        assert oracles.fwht(f).tolist() == naive_transform(f, n)


def test_fwht_is_exact_beyond_int64():
    big = np.array([2 ** 70, 1], dtype=object)
    assert oracles.fwht(big).tolist() == [2 ** 70 + 1, 2 ** 70 - 1]


def test_kwise_checker_accepts_the_cube_and_a_pairwise_space():
    assert oracles.biased_masks(oracles.cube_points(4), 4) == []
    # x3 = x1 * x2: pairwise independent, but the triple parity is constant.
    rows = np.array([(a, b, a * b) for a in (1, -1) for b in (1, -1)], dtype=np.int8)
    assert oracles.biased_masks(rows, 2) == []
    assert oracles.biased_masks(rows, 3) == [0b111]


def test_kwise_checker_rejects_a_flipped_coordinate():
    pts = oracles.cube_points(3).copy()
    pts[5, 1] = -pts[5, 1]
    assert oracles.biased_masks(pts, 1) != []


def test_kwise_checker_weighted():
    rows = np.array([(1, 1), (-1, -1), (1, -1), (-1, 1)], dtype=np.int8)
    even = [Fraction(1, 4)] * 4
    assert oracles.biased_masks(rows, 2, even) == []
    skew = [Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)]
    assert oracles.biased_masks(rows, 1, skew) == []        # 1-wise independent
    assert oracles.biased_masks(rows, 2, skew) == [0b11]    # x1 x2 is always +1


def test_int_poly_values_are_exact():
    quad = np.array([[0.5, 0.25], [0.25, 0.0]])
    p = oracles.IntPoly(0.125, [1.0, -0.75], quad)
    for x in itertools.product((1, -1), repeat=2):
        exact = (Fraction(1, 8) + Fraction(x[0]) - Fraction(3, 4) * x[1]
                 + Fraction(1, 2) + Fraction(1, 2) * x[0] * x[1])
        got = p.values(np.array([x]))[0]
        assert Fraction(int(got), p.den) == exact


def test_certificate_checker_on_sgn_x1x2():
    # sgn(x1 x2) = x1 x2, so q = x1 x2 is tight from both sides.
    target = np.array([int(x[0] * x[1]) for x in oracles.cube_points(2)])
    tight = {(0, 1): Fraction(1)}
    assert oracles.certificate_violations(tight, "upper", target, 2) == 0
    assert oracles.certificate_violations(tight, "lower", target, 2) == 0
    assert oracles.certificate_violations({(): Fraction(1)}, "upper", target, 2) == 0
    assert oracles.certificate_violations({(): Fraction(-1)}, "lower", target, 2) == 0


def test_certificate_checker_rejects_wrong_side():
    target = np.array([int(x[0] * x[1]) for x in oracles.cube_points(2)])
    assert oracles.certificate_violations({(): Fraction(1, 2)}, "upper", target, 2) == 2
    assert oracles.certificate_violations({(0,): Fraction(1)}, "lower", target, 2) == 1
    # One grid step below x1 x2, which is the target, at every point.
    under = {(0, 1): Fraction(1), (): Fraction(-1, 2 ** 32)}
    assert oracles.certificate_violations(under, "upper", target, 2) == 4


def test_certificate_checker_rejects_off_grid_coefficients():
    target = np.ones(4, dtype=np.int64)
    with pytest.raises(oracles.CheckError):
        oracles.certificate_violations({(): Fraction(1, 3)}, "upper", target, 2)


def test_parse_certificate_uses_one_based_keys():
    direction, coeffs = oracles.parse_certificate(
        {"direction": "upper", "coefficients": {"const": "1/2", "1,3": "-1/4"}})
    assert direction == "upper"
    assert coeffs == {(): Fraction(1, 2), (0, 2): Fraction(-1, 4)}


def brute_moment(A, k):
    n = A.shape[0]
    total = Fraction(0)
    for x in itertools.product((1, -1), repeat=n):
        v = sum(Fraction(float(A[i, j])) * x[i] * x[j]
                for i in range(n) for j in range(n) if i != j)
        total += v ** k
    return total / 2 ** n


def test_moment_oracle_on_a_single_pair():
    A = np.array([[3.0, 0.5], [0.5, -2.0]])      # x'Ax - tr A = x1 x2
    assert oracles.trace_centered_moment(A, 4) == 1
    assert oracles.trace_centered_moment(A, 3) == 0


def test_moment_oracle_matches_brute_force_and_rejects_a_perturbation():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4))
    A = 0.5 * (M + M.T)
    for k in (2, 4):
        exact = brute_moment(A, k)
        assert oracles.trace_centered_moment(A, k) == exact
        assert oracles.trace_centered_moment(A, k) != exact + Fraction(1, 2 ** 80)


def test_cut_formula_on_known_embeddings():
    edge = [(0, 1, 1.0)]
    assert oracles.expected_cut(edge, np.array([[1.0, 0.0], [-1.0, 0.0]])) == 1.0
    assert oracles.expected_cut(edge, np.array([[1.0, 0.0], [1.0, 0.0]])) == 0.0
    n = 5
    theta = (n - 1) * math.pi / n
    vecs = np.array([[math.cos(j * theta), math.sin(j * theta)] for j in range(n)])
    cycle = [(j, (j + 1) % n, 1.0) for j in range(n)]
    assert abs(oracles.expected_cut(cycle, vecs) - 4.0) <= 1e-12


def test_rounding_allowance_rejects_a_wrong_mean():
    edge = [(0, 1, 2.0)]
    vecs = np.array([[1.0, 0.0], [0.0, 1.0]])     # exact cut 2 * 1/2 = 1
    assert oracles.rounding_within_allowance(1.1, 0.0, edge, vecs)
    assert oracles.rounding_within_allowance(1.3, 0.06, edge, vecs)
    assert not oracles.rounding_within_allowance(1.3, 0.0, edge, vecs)
    assert not oracles.rounding_within_allowance(0.0, 0.1, edge, vecs)


def test_space_reader_round_trip(tmp_path):
    path = tmp_path / "w.space"
    path.write_text("2 1 2 weighted:1\n1 -1 1/3\n-1 1 2/3\n", encoding="ascii")
    n, k, pts, weights = oracles.read_space_file(path)
    assert (n, k) == (2, 1)
    assert pts.tolist() == [[1, -1], [-1, 1]]
    assert weights == [Fraction(1, 3), Fraction(2, 3)]
    path.write_text("2 1 2 weighted:0\n1 -1\n", encoding="ascii")
    with pytest.raises(oracles.CheckError):
        oracles.read_space_file(path)
