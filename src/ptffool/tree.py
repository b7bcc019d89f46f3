"""Restriction trees that reduce an arbitrary PTF to regular pieces.

Each internal node fixes one variable to -1 or +1 (always the currently
most influential one, so the construction is deterministic).  A leaf
holds the restricted polynomial together with a verdict: already
influence-regular at the requested tau, close to a constant sign under a
k-wise test distribution, or bad, meaning still irregular when the depth
budget ran out.  Reach probabilities are dyadic rationals and are handled
exactly throughout, so mass accounting never drifts.

Classification order matters.  A polynomial with no remaining variable
dependence has no influence ratio to test (the ratio is 0/0 there), so it
is routed straight to the close-to-constant case, where it trivially
lands with disagreement zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

import numpy as np

from . import config
from .cube import all_points
from .errors import ConfigurationError, FormatError
from .poly import (DegTwoPoly, dumps_poly, influences, loads_poly,
                   read_ascii, regularity, sgn_vec)
from .spaces import SampleSpace, build_kwise_bernoulli

REGULAR = "regular"
CLOSE_TO_CONSTANT = "close_to_constant"
BAD = "bad"


# --------------------------------------------------------------------------
# derived parameters


def test_space_order(tau: float) -> int:
    """Independence order used for close-to-constant testing.

    The floor ceil(2*log2(1/tau)) is the degree-2 instantiation of the
    required growth in log(1/tau); the additive margin is a config knob.
    """
    return math.ceil(2.0 * math.log2(1.0 / tau)) + config.TREE_TEST_SPACE_MARGIN


def default_max_depth(tau: float) -> int:
    """Depth budget: (1/tau) * (2 ln(1/tau))^2, capped by TREE_DEPTH_CAP.

    The shape is the right one for degree 2; the unit constants are not
    calibrated, which is why the cap exists and the value is overridable.
    """
    raw = math.ceil((1.0 / tau) * (2.0 * math.log(1.0 / tau)) ** 2)
    return min(raw, config.TREE_DEPTH_CAP)


def _uniform_cube_space(n: int, k_claimed: int) -> SampleSpace:
    # The uniform distribution on the whole cube is k-wise independent for
    # every k, so claiming the requested order is truthful.
    return SampleSpace(n=n, k_claimed=k_claimed, points=all_points(n),
                       method="uniform_cube")


def default_test_space(n: int, tau: float) -> SampleSpace:
    """Smallest exact test space of the required independence order.

    For every n this package's LP harness can touch, the full cube is
    smaller than a seed-enumerated k-wise construction and is exactly
    independent at every order, so it wins below ENUM_MAX_N.  Beyond
    that the bit-matrix construction takes over.
    """
    order = test_space_order(tau)
    if n <= config.ENUM_MAX_N:
        return _uniform_cube_space(n, order)
    return build_kwise_bernoulli(n, order)


# --------------------------------------------------------------------------
# leaf classification


@dataclass(frozen=True)
class Classification:
    """Verdict for one restricted polynomial.

    ``sign`` and ``disagreement`` are set whenever the close-to-constant
    test ran (so also on bad leaves, where they record how badly the test
    missed).  ``max_ratio`` is the influence ratio when it exists.
    """

    kind: str
    sign: Optional[int] = None
    disagreement: Optional[Fraction] = None
    max_ratio: Optional[float] = None


def classify_leaf(p_rho: DegTwoPoly, tau: float,
                  test_space: SampleSpace) -> Classification:
    """Classify a restricted polynomial as regular, close to constant, or bad.

    Regularity is checked first (a pure influence computation).  Failing
    that, the exact probability that sgn(p_rho) disagrees with its
    majority sign under ``test_space`` decides between close-to-constant
    and bad.  The probability is a Fraction; the comparison against tau
    is exact.
    """
    if not 0.0 < tau < 0.5:
        raise ConfigurationError("tau must lie in (0, 1/2)")
    if test_space.n != p_rho.n:
        raise ConfigurationError(
            f"test space is on {test_space.n} variables, polynomial on {p_rho.n}")
    floor = math.ceil(2.0 * math.log2(1.0 / tau))
    if test_space.k_claimed < floor:
        raise ConfigurationError(
            f"test space order {test_space.k_claimed} is below the "
            f"required {floor} for tau={tau}")

    inf, total = influences(p_rho)
    ratio = None
    if total > 0.0:
        rep = regularity(p_rho, tau)
        ratio = rep.max_ratio
        if rep.is_regular:
            return Classification(kind=REGULAR, max_ratio=ratio)

    signs = sgn_vec(p_rho.evaluate_many(test_space.points.astype(np.float64)))
    pr_pos = test_space.probability(signs > 0)
    b = 1 if pr_pos >= Fraction(1, 2) else -1
    disagreement = 1 - pr_pos if b == 1 else pr_pos
    kind = CLOSE_TO_CONSTANT if disagreement <= tau else BAD
    return Classification(kind=kind, sign=b, disagreement=disagreement,
                          max_ratio=ratio)


# --------------------------------------------------------------------------
# tree structure


@dataclass
class Leaf:
    poly: DegTwoPoly
    classification: Classification
    depth: int
    path: tuple[tuple[int, int], ...]     # ((variable, value), ...) root first
    truncated: bool = False

    @property
    def mass(self) -> Fraction:
        return Fraction(1, 2 ** self.depth)


@dataclass
class Node:
    var: int
    neg: Union["Node", Leaf]
    pos: Union["Node", Leaf]


@dataclass
class DecisionTree:
    """Complete restriction tree over {-1,1}^n.

    ``tau`` and ``test_order`` are None on trees read back from disk; the
    file format records outcomes, not build parameters.
    """

    n: int
    root: Union[Node, Leaf]
    tau: Optional[float] = None
    max_depth: Optional[int] = None
    test_order: Optional[int] = None
    truncated: bool = False

    def leaves(self) -> Iterator[Leaf]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                yield node
            else:
                stack.append(node.pos)
                stack.append(node.neg)

    def depth(self) -> int:
        return max(leaf.depth for leaf in self.leaves())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def route(self, x: np.ndarray) -> Leaf:
        """Walk the tree along an assignment and return the leaf reached."""
        node = self.root
        while isinstance(node, Node):
            node = node.pos if x[node.var] > 0 else node.neg
        return node


# --------------------------------------------------------------------------
# builder


def build_tree(p: DegTwoPoly, tau: float, max_depth: Optional[int] = None,
               test_space: Optional[SampleSpace] = None,
               leaf_budget: int = 2 ** 18) -> DecisionTree:
    """Grow the restriction tree for p deterministically.

    Nodes that classify regular or close-to-constant become leaves; bad
    nodes split on their most influential variable (lowest index on
    ties, so rebuilds are reproducible) until the depth budget or the
    leaf budget runs out.  Leaves cut short by a budget rather than by
    the classifier carry an explicit ``truncated`` marker and stay
    classified bad, which is the conservative side.
    """
    if not 0.0 < tau < 0.5:
        raise ConfigurationError("tau must lie in (0, 1/2)")
    if leaf_budget < 1:
        raise ConfigurationError("leaf budget must be positive")
    requested = default_max_depth(tau) if max_depth is None else int(max_depth)
    if requested < 0:
        raise ConfigurationError("max_depth must be nonnegative")
    effective = min(requested, config.TREE_DEPTH_CAP)
    if test_space is None:
        test_space = default_test_space(p.n, tau)

    finalized = 0
    truncated_any = False

    def grow(cur: DegTwoPoly, depth: int,
             path: tuple[tuple[int, int], ...]) -> Union[Node, Leaf]:
        nonlocal finalized, truncated_any
        cls = classify_leaf(cur, tau, test_space)
        out_of_depth = depth >= effective
        out_of_leaves = finalized + 2 > leaf_budget
        if cls.kind != BAD or out_of_depth or out_of_leaves:
            trunc = cls.kind == BAD and (out_of_leaves
                                         or (out_of_depth and requested > effective))
            truncated_any = truncated_any or trunc
            finalized += 1
            return Leaf(poly=cur, classification=cls, depth=depth,
                        path=path, truncated=trunc)
        var = int(np.argmax(influences(cur)[0]))
        neg = grow(cur.restrict(var, -1), depth + 1, path + ((var, -1),))
        pos = grow(cur.restrict(var, +1), depth + 1, path + ((var, +1),))
        return Node(var=var, neg=neg, pos=pos)

    root = grow(p, 0, ())
    return DecisionTree(n=p.n, root=root, tau=tau, max_depth=effective,
                        test_order=test_space.k_claimed,
                        truncated=truncated_any)


# --------------------------------------------------------------------------
# reporting


@dataclass
class DeviationDecomposition:
    """Exact mass bookkeeping behind the end-to-end fooling bound.

    The reduction argument charges each leaf class separately: regular
    leaves cost whatever the regular-case analysis gives, close leaves
    cost exactly their recorded disagreement, and bad or truncated mass
    is charged in full.  ``bound`` assembles the total.
    """

    regular_mass: Fraction
    close_mass: Fraction
    bad_mass: Fraction
    truncated_mass: Fraction
    close_disagreement_mass: Fraction

    def bound(self, regular_eps: float) -> float:
        return (float(self.regular_mass) * regular_eps
                + float(self.close_disagreement_mass)
                + float(self.bad_mass + self.truncated_mass))


@dataclass
class SpaceReachReport:
    passed: bool
    order: int
    leaves_checked: int
    worst_path: Optional[tuple[tuple[int, int], ...]]
    worst_gap: Fraction


@dataclass
class CompositionReport:
    passed: bool
    probes: int
    max_gap: float


@dataclass
class TreeReport:
    mass_by_class: dict
    depth_histogram: dict
    deviation: DeviationDecomposition
    exact: bool
    leaf_count: int
    depth: int
    space_check: Optional[SpaceReachReport] = None
    composition_check: Optional[CompositionReport] = None


def _space_reach_check(tree: DecisionTree, space: SampleSpace) -> SpaceReachReport:
    depth = tree.depth()
    if space.k_claimed < depth:
        raise ConfigurationError(
            f"space order {space.k_claimed} is below the tree depth {depth}")
    if space.n != tree.n:
        raise ConfigurationError("space and tree dimension mismatch")
    worst_gap = Fraction(0)
    worst_path = None
    checked = 0
    for leaf in tree.leaves():
        mask = np.ones(space.num_points, dtype=bool)
        for var, val in leaf.path:
            mask &= space.points[:, var] == val
        gap = abs(space.probability(mask) - leaf.mass)
        checked += 1
        if gap > worst_gap:
            worst_gap, worst_path = gap, leaf.path
    return SpaceReachReport(passed=worst_gap == 0, order=space.k_claimed,
                            leaves_checked=checked, worst_path=worst_path,
                            worst_gap=worst_gap)


def _composition_check(tree: DecisionTree, p: DegTwoPoly, probes: int,
                       seed: int) -> CompositionReport:
    rng = np.random.default_rng(seed)
    X = rng.choice(np.array([-1.0, 1.0]), size=(probes, p.n))
    max_gap = 0.0
    for x in X:
        leaf = tree.route(x)
        ref = p.evaluate(x)
        got = leaf.poly.evaluate(x)
        max_gap = max(max_gap, abs(got - ref) / max(1.0, abs(ref)))
    return CompositionReport(passed=max_gap <= 1e-9, probes=probes,
                             max_gap=max_gap)


def tree_report(tree: DecisionTree, p: Optional[DegTwoPoly] = None,
                space: Optional[SampleSpace] = None, probes: int = 100,
                seed: int = 0) -> TreeReport:
    """Exact per-class mass accounting plus optional empirical checks.

    Masses are dyadic rationals summing to exactly 1 on a complete tree.
    On a truncated tree the class masses are bounds, not values: a
    truncated leaf might have resolved into any class had it been grown,
    so its mass is reported separately and the report is flagged inexact.
    When ``space`` is supplied and its order covers the tree depth, every
    leaf's reach probability under it is compared with 2^-depth for exact
    equality.  When ``p`` is supplied, random probes confirm that routing
    plus leaf evaluation reproduces p.
    """
    mass = {REGULAR: Fraction(0), CLOSE_TO_CONSTANT: Fraction(0),
            BAD: Fraction(0)}
    truncated_mass = Fraction(0)
    disagreement_mass = Fraction(0)
    hist: dict[int, int] = {}
    count = 0
    for leaf in tree.leaves():
        count += 1
        hist[leaf.depth] = hist.get(leaf.depth, 0) + 1
        if leaf.truncated:
            truncated_mass += leaf.mass
            continue
        mass[leaf.classification.kind] += leaf.mass
        if leaf.classification.kind == CLOSE_TO_CONSTANT:
            disagreement_mass += leaf.mass * leaf.classification.disagreement
    total = mass[REGULAR] + mass[CLOSE_TO_CONSTANT] + mass[BAD] + truncated_mass
    if total != 1:
        raise ConfigurationError(f"leaf masses sum to {total}, tree is not complete")
    decomposition = DeviationDecomposition(
        regular_mass=mass[REGULAR], close_mass=mass[CLOSE_TO_CONSTANT],
        bad_mass=mass[BAD], truncated_mass=truncated_mass,
        close_disagreement_mass=disagreement_mass)
    by_class = dict(mass)
    if truncated_mass:
        by_class["truncated"] = truncated_mass
    return TreeReport(
        mass_by_class=by_class, depth_histogram=dict(sorted(hist.items())),
        deviation=decomposition, exact=not tree.truncated, leaf_count=count,
        depth=tree.depth(),
        space_check=_space_reach_check(tree, space) if space is not None else None,
        composition_check=(_composition_check(tree, p, probes, seed)
                           if p is not None else None))


# --------------------------------------------------------------------------
# serialization: nested JSON, {var, neg, pos} at internal nodes,
# {leaf: {class, poly, mass, ...}} at leaves.  Variables are 1-based in the
# file, matching the polynomial text format.


def _node_to_obj(node: Union[Node, Leaf]):
    if isinstance(node, Leaf):
        leaf = {"class": node.classification.kind,
                "mass": str(node.mass),
                "poly": dumps_poly(node.poly)}
        if node.classification.sign is not None:
            leaf["sign"] = node.classification.sign
        if node.classification.disagreement is not None:
            leaf["disagreement"] = str(node.classification.disagreement)
        if node.truncated:
            leaf["truncated"] = True
        return {"leaf": leaf}
    return {"var": node.var + 1,
            "neg": _node_to_obj(node.neg),
            "pos": _node_to_obj(node.pos)}


def dump_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_node_to_obj(tree.root), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _obj_to_node(obj, depth: int,
                 path: tuple[tuple[int, int], ...]) -> Union[Node, Leaf]:
    if not isinstance(obj, dict):
        raise FormatError("tree nodes must be JSON objects")
    if "leaf" in obj:
        rec = obj["leaf"]
        try:
            kind = rec["class"]
            mass = Fraction(rec["mass"])
            p = loads_poly(rec["poly"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"malformed leaf record: {exc}") from exc
        if kind not in (REGULAR, CLOSE_TO_CONSTANT, BAD):
            raise FormatError(f"unknown leaf class {kind!r}")
        if mass != Fraction(1, 2 ** depth):
            raise FormatError(
                f"leaf at depth {depth} stores mass {mass}, expected 1/{2 ** depth}")
        sign = rec.get("sign")
        disagreement = rec.get("disagreement")
        cls = Classification(
            kind=kind, sign=sign,
            disagreement=Fraction(disagreement) if disagreement is not None else None)
        return Leaf(poly=p, classification=cls, depth=depth, path=path,
                    truncated=bool(rec.get("truncated", False)))
    if not {"var", "neg", "pos"} <= obj.keys():
        raise FormatError("internal nodes need var, neg, and pos")
    var = int(obj["var"]) - 1
    if var < 0:
        raise FormatError("variable indices are 1-based")
    return Node(var=var,
                neg=_obj_to_node(obj["neg"], depth + 1, path + ((var, -1),)),
                pos=_obj_to_node(obj["pos"], depth + 1, path + ((var, 1),)))


def load_tree(path) -> DecisionTree:
    root = _obj_to_node(json.loads(read_ascii(path, "tree")), 0, ())
    first = root if isinstance(root, Leaf) else next(
        leaf for leaf in DecisionTree(n=0, root=root).leaves())
    tree = DecisionTree(n=first.poly.n, root=root)
    tree.truncated = any(leaf.truncated for leaf in tree.leaves())
    return tree
