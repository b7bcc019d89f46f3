import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_reference
from conftest import fraction_values, random_poly
from ptffool import config, spaces, tree
from ptffool.cube import all_points
from ptffool.errors import ConfigurationError, FormatError
from ptffool.poly import DegTwoPoly, dumps_poly


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
    p = random_poly(4, rng)
    t = tree.build_tree(p, tau=0.3)
    counts = {}
    pts = all_points(4)
    for x in pts:
        leaf = t.route(x)
        counts[tuple(leaf.path)] = counts.get(tuple(leaf.path), 0) + 1
    for leaf in t.leaves():
        assert Fraction(counts[tuple(leaf.path)], len(pts)) == leaf.mass


def test_depth_cap_marks_truncation(monkeypatch):
    # a cap below the requested depth is the only way a leaf is truncated
    monkeypatch.setattr(config, "TREE_DEPTH_CAP", 1)
    rng = np.random.default_rng(5)
    p = random_poly(6, rng)
    t = tree.build_tree(p, tau=0.02, max_depth=2)
    assert t.truncated
    assert sum((lf.mass for lf in t.leaves()), Fraction(0)) == Fraction(1)
    rep = tree.tree_report(t)
    assert not rep.exact
    assert rep.deviation.truncated_mass > 0


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
    cube = spaces.SampleSpace(n=3, k_claimed=4, points=all_points(3))
    cls = tree.classify_leaf(p, 0.3, cube)
    assert (cls.kind, cls.sign, cls.disagreement) == (tree.BAD, -1, Fraction(3, 8))


def test_leaves_store_the_restriction_along_their_path(rng):
    """A leaf's polynomial keeps the ambient dimension; the fixed slots'
    coefficients fold into lower-order terms and stop mattering."""
    p = random_poly(5, rng)
    t = tree.build_tree(p, tau=0.2)
    for leaf in t.leaves():
        assert leaf.poly.n == 5
        for x in all_points(5):
            fixed = x.astype(np.float64)
            for var, val in leaf.path:
                fixed[var] = val
            assert abs(leaf.poly.evaluate(x) - p.evaluate(fixed)) < 1e-12


# --------------------------------------------------------------------------
# every leaf against p restricted and evaluated in Fractions


def _check_against_fractions(p: DegTwoPoly, tau: float, t: tree.DecisionTree):
    """Walk t beside p restricted exactly: each node's verdict (exact
    influence share, then the majority sign and disagreement of p on its
    subcube), each split variable, and each leaf's display polynomial."""
    n = p.n
    points = all_points(n).tolist()
    values = fraction_values(p, points)
    Q = [[Fraction(v) for v in row] for row in p.quad.tolist()]

    def walk(node, path, constant, linear):
        fixed = {v for v, _ in path}
        free = [i for i in range(n) if i not in fixed]
        inf = [linear[i] ** 2 + sum((2 * Q[i][j]) ** 2 for j in free if j != i)
               if i in free else Fraction(0) for i in range(n)]
        total = sum(inf)
        rows = [r for r, x in enumerate(points)
                if all(x[v] == s for v, s in path)]
        pos = Fraction(sum(values[r] >= 0 for r in rows), len(rows))
        sign = 1 if pos >= Fraction(1, 2) else -1
        disagreement = 1 - pos if sign == 1 else pos
        if total and max(inf) / total <= Fraction(tau):
            kind = tree.REGULAR
        else:
            kind = tree.CLOSE_TO_CONSTANT if disagreement <= tau else tree.BAD
        if isinstance(node, tree.Node):
            assert kind == tree.BAD, path
            assert node.var == inf.index(max(inf)), path
            v = node.var
            for s, child in ((-1, node.neg), (1, node.pos)):
                walk(child, path + ((v, s),), constant + s * linear[v] + Q[v][v],
                     [linear[i] + 2 * s * Q[i][v] if i in free and i != v
                      else Fraction(0) for i in range(n)])
            return
        cls = node.classification
        assert not node.truncated and cls.kind == kind, path
        if kind != tree.REGULAR:
            assert (cls.sign, cls.disagreement) == (sign, disagreement), path
        exact = [constant, *linear]
        assert [node.poly.constant, *node.poly.linear.tolist()] == [
            float(c) for c in exact], path
        quad = p.quad.copy()
        quad[sorted(fixed), :] = 0.0
        quad[:, sorted(fixed)] = 0.0
        assert np.array_equal(node.poly.quad, quad), path
        assert node.poly_rounded == any(Fraction(float(c)) != c for c in exact)

    walk(t.root, (), Fraction(p.constant), [Fraction(v) for v in p.linear])


# exact zeros, units next to 2^53 and 2^54 (whose sums round), and
# dyadics from 2^-16 to 2^54
_big_and_units = st.sampled_from([0.0, 1.0, -1.0, 3.0, 2.0 ** 53, 2.0 ** 54,
                                  -2.0 ** 54])
_mixed_scale = st.one_of(_big_and_units, st.builds(
    lambda m, e: m * 2.0 ** e, st.integers(-5, 5), st.integers(-16, 54)))


@st.composite
def _mixed_scale_polys(draw):
    n = draw(st.integers(1, 6))
    coef = draw(st.sampled_from([_big_and_units, _mixed_scale]))
    linear = {i: draw(coef) for i in range(n)}
    quad = {(i, j): draw(coef) for i in range(n) for j in range(i, n)}
    p = DegTwoPoly.from_terms(n, draw(coef), linear, quad)
    return p, draw(st.sampled_from([0.05, 0.2, 0.3, 0.45]))


@settings(max_examples=100, deadline=None)
@given(_mixed_scale_polys())
def test_leaves_match_fraction_restriction(case):
    p, tau = case
    t = tree.build_tree(p, tau)
    _check_against_fractions(p, tau, t)
    assert tree.tree_report(t, p).composition_check.passed


def test_exact_leaves_on_a_2_54_scale():
    # float restriction rounds 2^54-scale sums, and the tree it grew
    # stored disagreement 0 on two leaves where p disagrees on 1/4
    big, huge = 2.0 ** 53, 2.0 ** 54
    p = DegTwoPoly.from_terms(
        5, big, {0: 1.0, 1: -1.0, 2: big, 3: -1.0, 4: -1.0},
        {(0, 2): big, (0, 3): 1.0, (0, 4): huge, (1, 2): huge, (2, 3): -1.0,
         (3, 4): big})
    t = tree.build_tree(p, 0.2)
    _check_against_fractions(p, 0.2, t)
    rep = tree.tree_report(t, p)
    assert (t.leaf_count(), rep.deviation.close_disagreement_mass) == (16, Fraction(1, 32))
    assert rep.composition_check.passed
    assert 0 < sum(leaf.poly_rounded for leaf in t.leaves()) < 16


# --------------------------------------------------------------------------
# the restriction walked down the tree against the path-based oracle


def _assert_walk_matches_reference(p: DegTwoPoly, t: tree.DecisionTree):
    """Every node's walked state (c, l, Inf, free) is p's integer form
    restricted from the root along the node's path, and every leaf holds
    that restriction's display polynomial and rounding flag."""
    form, ref = tree._ExactForm(p), tree_reference.ExactForm(p)
    for node, path, (c, lin, rows, free) in t.walk(form.fix, form.root):
        inf = [l * l + r for l, r in zip(lin, rows)]
        want_c, want_lin, want_inf, want_free = ref.restrict(path)
        assert (c, lin, inf, free) == (want_c, want_lin.tolist(), want_inf.tolist(),
                                       tuple(want_free.tolist())), path
        if isinstance(node, tree.Leaf):
            poly, rounded = ref.display(path)
            assert (dumps_poly(node.poly), node.poly_rounded) == (
                dumps_poly(poly), rounded), path


@settings(max_examples=100, deadline=None)
@given(_mixed_scale_polys())
def test_walked_states_match_path_restriction(case):
    p, tau = case
    _assert_walk_matches_reference(p, tree.build_tree(p, tau))


def _decaying_poly(n: int, rng: np.random.Generator) -> DegTwoPoly:
    """Coefficients 0.92^i on the 2^-16 grid with random signs: pair
    weights first, then the linear part."""
    pairs = n * (n - 1) // 2
    w = np.round(0.92 ** np.arange(pairs + n) * 2.0 ** 16) / 2.0 ** 16
    w *= rng.choice([-1.0, 1.0], size=w.size)
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = w[:pairs]
    return DegTwoPoly(n, 0.0, w[pairs:], (upper + upper.T) / 2)


def _relabel(p: DegTwoPoly, rng: np.random.Generator) -> DegTwoPoly:
    """p(D x) for a random signed permutation D."""
    D = np.zeros((p.n, p.n))
    D[np.arange(p.n), rng.permutation(p.n)] = rng.choice([-1.0, 1.0], size=p.n)
    return DegTwoPoly(p.n, p.constant, D.T @ p.linear, D.T @ p.quad @ D)


def test_walked_states_match_on_relabeled_decaying_polys():
    base = _decaying_poly(12, np.random.default_rng(4))
    counts = set()
    for seed in (1, 2):
        p = _relabel(base, np.random.default_rng(seed))
        t = tree.build_tree(p, 0.05)
        counts.add(t.leaf_count())
        _assert_walk_matches_reference(p, t)
    assert len(counts) == 1         # relabeling renames the tree, no more


def test_leaf_polynomials_are_what_the_checking_constructor_stores(rng):
    """Leaves skip DegTwoPoly's checks and copies; each must be, bit for
    bit, what the checking constructor stores from the same parts."""
    p = _relabel(_decaying_poly(8, rng), rng)
    for leaf in tree.build_tree(p, 0.05).leaves():
        q = leaf.poly
        checked = DegTwoPoly(q.n, q.constant, q.linear, q.quad)
        assert type(q.constant) is float and q.constant == checked.constant
        for got, want in ((q.linear, checked.linear), (q.quad, checked.quad)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_composition_check_catches_a_wrong_leaf(rng):
    p = random_poly(4, rng)
    t = tree.build_tree(p, tau=0.2)
    leaf = next(t.leaves())
    leaf.poly = DegTwoPoly(4, leaf.poly.constant + 2.0 ** -40, leaf.poly.linear,
                           leaf.poly.quad)
    rep = tree.tree_report(t, p).composition_check
    assert not rep.passed and rep.broken_path == leaf.path
    leaf.poly_rounded = True
    assert not tree.tree_report(t, p).composition_check.passed


def _nudged(leaf: tree.Leaf) -> None:
    poly = leaf.poly
    leaf.poly = DegTwoPoly(poly.n, poly.constant + 2.0 ** -40, poly.linear, poly.quad)


def test_composition_check_catches_the_last_leaf():
    p = _decaying_poly(8, np.random.default_rng(4))
    t = tree.build_tree(p, tau=0.05)
    *_, last = t.leaves()
    assert len(last.path) >= 3 and all(s == 1 for _, s in last.path)
    _nudged(last)
    rep = tree.tree_report(t, p).composition_check
    assert (rep.passed, rep.leaves_checked, rep.broken_path) == (
        False, t.leaf_count(), last.path)


def test_composition_check_on_a_tree_read_back(tmp_path):
    p = _decaying_poly(8, np.random.default_rng(4))
    tree.dump_tree(tree.build_tree(p, tau=0.05), tmp_path / "t.json")
    back = tree.load_tree(tmp_path / "t.json")
    assert tree.tree_report(back, p).composition_check.passed
    leaves = list(back.leaves())
    first, later = leaves[len(leaves) // 3], leaves[-2]
    later.poly_rounded = not later.poly_rounded      # broken first, found second
    _nudged(first)
    rep = tree.tree_report(back, p).composition_check
    assert (rep.passed, rep.broken_path) == (False, first.path)


def _leaf(n: int, depth: int) -> dict:
    return {"leaf": {"class": tree.CLOSE_TO_CONSTANT, "mass": f"1/{2 ** depth}",
                     "poly": f"{n}\nC 1.0\n", "sign": 1, "disagreement": "0"}}


@pytest.mark.parametrize("label,obj", [
    ("variable above n", {"var": 99, "neg": _leaf(2, 1), "pos": _leaf(2, 1)}),
    ("variable 0", {"var": 0, "neg": _leaf(2, 1), "pos": _leaf(2, 1)}),
    ("variable not an integer", {"var": "1", "neg": _leaf(2, 1), "pos": _leaf(2, 1)}),
    ("dimensions differ", {"var": 1, "neg": _leaf(2, 1), "pos": _leaf(3, 1)}),
    ("variable fixed twice", {"var": 1, "pos": _leaf(2, 1), "neg": {
        "var": 1, "neg": _leaf(2, 2), "pos": _leaf(2, 2)}}),
    ("disagreement not a number", {"leaf": {**_leaf(2, 0)["leaf"], "disagreement": [0]}}),
])
def test_load_rejects_inconsistent_trees(tmp_path, label, obj):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        tree.load_tree(path)


def _verdict_leaf(kind, **fields) -> dict:
    rec = {"class": kind, "mass": "1", "poly": "2\nC 1.0\n", **fields}
    return {"leaf": {k: v for k, v in rec.items() if v is not None}}


@pytest.mark.parametrize("label,obj,ok", [
    ("close leaf", _verdict_leaf(tree.CLOSE_TO_CONSTANT, sign=-1, disagreement="1/4"), True),
    ("bad leaf at 1/2", _verdict_leaf(tree.BAD, sign=1, disagreement="1/2"), True),
    ("regular leaf", _verdict_leaf(tree.REGULAR), True),
    ("sign 7", _verdict_leaf(tree.CLOSE_TO_CONSTANT, sign=7, disagreement="0"), False),
    ("sign 0", _verdict_leaf(tree.BAD, sign=0, disagreement="1/2"), False),
    ("sign true", _verdict_leaf(tree.BAD, sign=True, disagreement="1/2"), False),
    ("sign 1.0", _verdict_leaf(tree.BAD, sign=1.0, disagreement="1/2"), False),
    ("disagreement 3/4", _verdict_leaf(tree.CLOSE_TO_CONSTANT, sign=1, disagreement="3/4"),
     False),
    ("disagreement -1/8", _verdict_leaf(tree.BAD, sign=1, disagreement="-1/8"), False),
    ("close leaf without sign", _verdict_leaf(tree.CLOSE_TO_CONSTANT, disagreement="0"),
     False),
    ("bad leaf without disagreement", _verdict_leaf(tree.BAD, sign=-1), False),
    ("regular leaf with sign", _verdict_leaf(tree.REGULAR, sign=1), False),
    ("regular leaf with disagreement", _verdict_leaf(tree.REGULAR, disagreement="0"),
     False),
])
def test_load_checks_leaf_verdicts(tmp_path, label, obj, ok):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    if ok:
        cls = next(tree.load_tree(path).leaves()).classification
        assert cls.kind == obj["leaf"]["class"]
        assert cls.sign == obj["leaf"].get("sign")
    else:
        with pytest.raises(FormatError):
            tree.load_tree(path)
