"""The four exact weighted sums (sign expectation, anticoncentration,
leaf classification, tree reach) against plain Fraction sums over rows,
on weighted spaces whose common denominator fits int64 and one whose
denominator does not.  Polynomial values are Fractions, point by point."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import fraction_values, random_poly
from ptffool import fooling, spaces, tree
from ptffool.cube import all_points
from ptffool.poly import DegTwoPoly

N = 4
BIG_PRIME = 2 ** 89 - 1         # every weight has this denominator: above int64


def _weighted_cube(raw: list[int], denom: int) -> spaces.SampleSpace:
    return spaces.SampleSpace(n=N, k_claimed=N, points=all_points(N),
                              weights=[Fraction(r, denom) for r in raw])


@pytest.fixture(params=["int64", "python-int"])
def space(request):
    rng = np.random.default_rng(4242)
    if request.param == "int64":
        raw = [int(r) for r in rng.integers(0, 10, size=1 << N)]
        sp = _weighted_cube(raw, sum(raw))
        assert sp.num_seeds < 2 ** 63
        return sp
    draw = random.Random(4242)
    cuts = [0] + sorted(draw.randrange(1, BIG_PRIME) for _ in range((1 << N) - 1))
    raw = [hi - lo for lo, hi in zip(cuts, cuts[1:] + [BIG_PRIME])]
    sp = _weighted_cube(raw, BIG_PRIME)
    assert sp.num_seeds >= 2 ** 63
    return sp


def _mass(space, mask) -> Fraction:
    return sum((w for w, hit in zip(space.weights, mask) if hit), Fraction(0))


def test_sgn_expectation(space, rng):
    for _ in range(5):
        p = random_poly(N, rng)
        values = fraction_values(p, space.points)
        expected = sum((w if v >= 0 else -w for w, v in zip(space.weights, values)),
                       Fraction(0))
        assert fooling.exact_sgn_expectation(p, space) == expected


def test_anticoncentration_probe(space, rng):
    p = random_poly(N, rng)
    vals = fraction_values(fooling._normalized(p), space.points)
    for t in (-0.5, 0.0, 0.7):
        rep = fooling.anticoncentration_probe(p, 0.6, t, space)
        assert rep.exact == _mass(space, [abs(v - Fraction(t)) < Fraction(0.6)
                                          for v in vals])


def test_classify_leaf(space):
    # x1 carries almost all the influence, so the leaf is never regular
    p = DegTwoPoly.from_terms(N, 0.5, {0: 3.0}, {(1, 2): 0.4, (2, 3): -0.3})
    pos = _mass(space, [v >= 0 for v in fraction_values(p, space.points)])
    cls = tree.classify_leaf(p, 0.3, space)
    assert cls.disagreement == min(pos, 1 - pos)
    assert cls.sign == (1 if pos >= Fraction(1, 2) else -1)


def test_space_reach_check(space, rng):
    p = random_poly(N, rng)
    t = tree.build_tree(p, tau=0.3)
    rep = tree.tree_report(t, p, space=space).space_check
    gaps = [abs(_mass(space, np.all(space.points[:, [v for v, _ in leaf.path]]
                                    == [x for _, x in leaf.path], axis=1))
                - leaf.mass) for leaf in t.leaves()]
    assert rep.worst_gap == max(gaps)
    assert rep.leaves_checked == len(gaps)
