from fractions import Fraction

import numpy as np
import pytest

from conftest import random_poly
from ptffool import spaces, tree
from ptffool.errors import ConfigurationError, FormatError
from ptffool.poly import DegTwoPoly


def product_poly() -> DegTwoPoly:
    return DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})


def test_product_poly_splits_to_constants():
    t = tree.build_tree(product_poly(), tau=0.4)
    assert t.depth() == 2
    assert t.leaf_count() == 4
    for leaf in t.leaves():
        assert leaf.classification.kind == tree.CLOSE_TO_CONSTANT
        assert leaf.classification.disagreement == Fraction(0)
        assert leaf.mass == Fraction(1, 4)


def test_constant_poly_is_single_close_leaf():
    p = DegTwoPoly.from_terms(3, constant=3.0)
    t = tree.build_tree(p, tau=0.1)
    assert t.leaf_count() == 1
    leaf = next(iter(t.leaves()))
    assert leaf.classification.kind == tree.CLOSE_TO_CONSTANT
    assert leaf.classification.sign == +1
    assert leaf.classification.disagreement == Fraction(0)


def test_regular_poly_is_single_regular_leaf(rng):
    # flat coefficients on many variables: already tau-regular at the root
    n = 10
    p = DegTwoPoly.from_terms(
        n, quad_terms={(i, j): 1.0 for i in range(n) for j in range(i + 1, n)})
    t = tree.build_tree(p, tau=0.45)
    assert t.leaf_count() == 1
    assert next(iter(t.leaves())).classification.kind == tree.REGULAR


def test_masses_sum_to_one_exactly(rng):
    for _ in range(5):
        p = random_poly(5, rng)
        t = tree.build_tree(p, tau=0.25)
        total = sum((leaf.mass for leaf in t.leaves()), Fraction(0))
        assert total == Fraction(1)


def test_split_variable_is_most_influential():
    p = DegTwoPoly.from_terms(3, linear={0: 0.1, 1: 5.0, 2: 0.1},
                              quad_terms={(0, 2): 0.05})
    t = tree.build_tree(p, tau=0.01, max_depth=1)
    assert t.root.var == 1


def test_disagreement_golden_eighth():
    """2 + x1 + x2 + x3 disagrees with sgn = +1 exactly on the single
    all-minus octant: mass 1/8, and that is stable across test spaces."""
    p = DegTwoPoly.from_terms(3, constant=2.0,
                              linear={0: 1.0, 1: 1.0, 2: 1.0})
    for method in ("vandermonde_bit", "bch_parity"):
        sp = spaces.build_kwise_bernoulli(8, 5, method=method)
        cls = tree.classify_leaf(p, tau=0.2,
                                 test_space=_pad_space_to(sp, 3))
        assert cls.kind == tree.CLOSE_TO_CONSTANT
        assert cls.sign == +1
        assert cls.disagreement == Fraction(1, 8)


def _pad_space_to(sp, n):
    """Restrict a wider space to the first n coordinates."""
    return spaces.SampleSpace(n=n, k_claimed=sp.k_claimed,
                              points=sp.points[:, :n], method=sp.method)


def test_route_follows_assignments(rng):
    p = random_poly(4, rng)
    t = tree.build_tree(p, tau=0.2)
    for x in [(1, 1, 1, 1), (-1, 1, -1, 1), (-1, -1, -1, -1)]:
        leaf = t.route(np.array(x))
        for var, val in leaf.path:
            assert x[var] == val


def test_reach_probability_matches_mass(rng):
    """Walking the tree with uniform bits reaches each leaf with
    probability exactly 2^-depth: count paths by enumeration."""
    from ptffool.cube import all_points
    p = random_poly(4, rng)
    t = tree.build_tree(p, tau=0.3)
    counts = {}
    pts = all_points(4)
    for x in pts:
        leaf = t.route(x)
        counts[tuple(leaf.path)] = counts.get(tuple(leaf.path), 0) + 1
    for leaf in t.leaves():
        assert Fraction(counts[tuple(leaf.path)], len(pts)) == leaf.mass


def test_depth_cap_marks_truncation():
    rng = np.random.default_rng(5)
    p = random_poly(6, rng)
    t = tree.build_tree(p, tau=0.02, max_depth=1)
    kinds = [leaf.truncated for leaf in t.leaves()]
    if any(kinds):
        assert t.truncated
        rep = tree.tree_report(t)
        assert rep.deviation.truncated_mass > 0


def test_leaf_budget_truncates():
    # the budget caps classifier-finalized leaves; open branches still
    # close out as explicitly truncated ones so masses stay complete
    rng = np.random.default_rng(6)
    p = random_poly(6, rng)
    t = tree.build_tree(p, tau=0.02, leaf_budget=3)
    assert t.truncated
    finalized = [lf for lf in t.leaves() if not lf.truncated]
    assert len(finalized) <= 3
    assert sum((lf.mass for lf in t.leaves()), Fraction(0)) == Fraction(1)


def test_report_masses_and_deviation_bound(rng):
    p = random_poly(5, rng)
    t = tree.build_tree(p, tau=0.25)
    rep = tree.tree_report(t, p)
    total = sum(rep.mass_by_class.values())
    assert total == 1
    assert rep.exact
    dev = rep.deviation
    assert dev.bad_mass <= Fraction(1)
    b = dev.bound(regular_eps=0.05)
    assert b >= float(dev.bad_mass)


def test_space_reach_check(rng):
    p = random_poly(4, rng)
    t = tree.build_tree(p, tau=0.3)
    depth = t.depth()
    sp = spaces.build_kwise_bernoulli(8, max(depth, 1))
    rep = tree.tree_report(t, p, space=_pad_space_to(sp, 4))
    assert rep.space_check is not None
    assert rep.space_check.passed
    assert rep.space_check.worst_gap == Fraction(0)


def test_tau_validation():
    with pytest.raises(ConfigurationError):
        tree.build_tree(product_poly(), tau=0.5)
    with pytest.raises(ConfigurationError):
        tree.build_tree(product_poly(), tau=0.0)


def test_dump_load_round_trip(tmp_path, rng):
    p = random_poly(5, rng)
    t = tree.build_tree(p, tau=0.25)
    path = tmp_path / "t.json"
    tree.dump_tree(t, path)
    back = tree.load_tree(path)
    assert back.n == t.n
    assert back.leaf_count() == t.leaf_count()
    assert back.depth() == t.depth()
    tree.dump_tree(back, tmp_path / "t2.json")
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()


def test_load_rejects_non_ascii_bytes(tmp_path, rng):
    path = tmp_path / "t.json"
    tree.dump_tree(tree.build_tree(random_poly(3, rng), tau=0.25), path)
    path.write_bytes(path.read_bytes() + "\u2212".encode("utf-8"))
    with pytest.raises(FormatError):
        tree.load_tree(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("{bad")
    with pytest.raises(FormatError):
        tree.load_tree(path)


def test_classify_leaf_counts_exact_zeros_as_positive():
    # -2^53 + 2^53 x1 + x2 + x3 is >= 0 at 3 of 8 points; float evaluation
    # sees 2 of them and would call the leaf close to constant at tau = 0.3
    p = DegTwoPoly.from_terms(3, -2.0 ** 53, {0: 2.0 ** 53, 1: 1.0, 2: 1.0})
    cls = tree.classify_leaf(p, 0.3, tree.default_test_space(3, 0.3))
    assert (cls.kind, cls.sign, cls.disagreement) == (tree.BAD, -1, Fraction(3, 8))


def test_default_test_space_order():
    assert tree.test_space_order(0.25) >= 4
    assert tree.test_space_order(0.01) >= 2 * 6 + 2  # ceil(2 log2 100) + margin
