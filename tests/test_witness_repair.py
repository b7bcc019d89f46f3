"""The exact witness repair (float LU, integer refinement, rational
reconstruction) against the Fraction Gauss-Jordan repair it replaced."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import witness_reference
from conftest import random_poly
from ptffool import config, cube, fooling, spaces


def _sides(p, k):
    return fooling._solve_lp(fooling.sgn_values(p), p.n, k, "sgn")[1]


def _hand_side(weights, n=2, k=1):
    """An LP side with the given float weights over the 2^n cube points."""
    subsets = cube.subsets_up_to(n, k)
    masks = np.array([0] + [cube.subset_mask(s) for s in subsets], dtype=np.uint64)
    return fooling._LpSide(sense="max", optimum=0.0, weights=np.asarray(weights),
                           dual=np.zeros(masks.size), subsets=subsets, masks=masks,
                           objective_values=np.ones(1 << n), uniform_expectation=Fraction(1),
                           k=k, n=n)


def _same(a, b):
    return (a.weights == b.weights and np.array_equal(a.points, b.points)
            and all(type(w) is Fraction for w in a.weights))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 7), k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_repair_matches_fraction_gauss_jordan(n, k, seed):
    k = min(k, n)
    for side in _sides(random_poly(n, np.random.default_rng(seed)), k):
        new, why = fooling._repair_witness(side)
        ref = witness_reference.repair_witness(side)
        assert ref is not None
        assert new is not None, why
        assert why is None and _same(new, ref)


def test_rank_deficient_support_pins_the_lightest_column():
    # Four points carry a 1-wise independent distribution: rank 3 of 4, so
    # one column is pinned.  With dyadic weights both repairs agree exactly.
    side = _hand_side([0.375, 0.125, 0.125, 0.375])
    new, why = fooling._repair_witness(side)
    assert why is None and _same(new, witness_reference.repair_witness(side))
    assert new.weights == [Fraction(3, 8), Fraction(1, 8), Fraction(1, 8), Fraction(3, 8)]
    # Otherwise the pinned column is rounded onto multiples of 2^-32 and the
    # others solved exactly around it.
    side = _hand_side([1 / 3, 1 / 6, 1 / 6, 1 / 3])
    new, why = fooling._repair_witness(side)
    pin = Fraction(round(config.CERT_DENOMINATOR / 6), config.CERT_DENOMINATOR)
    assert why is None
    assert new.weights == [Fraction(1, 2) - pin, pin, pin, Fraction(1, 2) - pin]
    assert spaces.verify_kwise_exact(new, 1).passed


def test_solver_off_by_one_over_den_is_refused(monkeypatch):
    side = _sides(random_poly(5, np.random.default_rng(7)), 2)[0]
    assert fooling._repair_witness(side)[0] is not None
    solve = fooling._solve_exact

    def off_by_one(B, lu, c):
        num, den = solve(B, lu, c)
        num = num.copy()
        num[0] += 1
        return num, den

    monkeypatch.setattr(fooling, "_solve_exact", off_by_one)
    witness, why = fooling._repair_witness(side)
    assert witness is None and "exact marginal check failed" in why


def test_exact_matvec_on_wide_signed_integers():
    """A ±1 matrix and a 0/1 one, as the marginal rows are."""
    rng = np.random.default_rng(3)
    signed = rng.choice(np.array([-1, 1], dtype=np.int8), size=(9, 6))
    v = np.array([int(x) for x in rng.integers(-2 ** 62, 2 ** 62, size=6)], dtype=object)
    v[0] = -(3 ** 200)
    v[1] = 0
    for M in (signed, rng.choice(np.array([0, 1], dtype=np.int8), size=(9, 6))):
        want = [sum(int(M[i, j]) * int(v[j]) for j in range(6)) for i in range(9)]
        assert list(fooling._exact_matvec(M, v)) == want
