"""Restriction trees that reduce an arbitrary PTF to regular pieces.

Each internal node fixes the currently most influential variable to -1
or +1.  A leaf is influence-regular at the requested tau, close to a
constant sign on its subcube, or bad: still irregular when the depth
budget ran out.  Reach probabilities are exact dyadic rationals.

Trees run on the whole cube from one exact evaluation: p's sign at every
cube point and p's integer form (``poly.integer_form``), each taken once.
On a node's subcube p_rho = p, so its disagreement counts the root's
signs over a view of the subcube; its influences (if none are left, it
goes straight to the close-to-constant test) come from p_rho's integer
form, carried down the path in O(n) int operations a step, and the exact
check of ``tree_report`` walks the tree the same way.  Leaf polynomials
are for display, rounded once per coefficient from the exact restriction
and built from those and p's validated quadratic part without a second
check, and ``poly_rounded`` marks those that rounding changed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

import numpy as np

from . import config
from .cube import all_points
from .errors import ConfigurationError, FormatError
from .poly import (DegTwoPoly, dumps_poly, integer_form, loads_poly,
                   read_ascii, signs)
from .spaces import SampleSpace

REGULAR = "regular"
CLOSE_TO_CONSTANT = "close_to_constant"
BAD = "bad"

Path = tuple[tuple[int, int], ...]      # ((variable, value), ...) root first


# --------------------------------------------------------------------------
# derived parameters and leaf classification


def default_max_depth(tau: float) -> int:
    """Depth budget: (1/tau) * (2 ln(1/tau))^2, capped by TREE_DEPTH_CAP.

    The shape is the right one for degree 2; the unit constants are not
    calibrated, which is why the cap exists and the value is overridable.
    """
    raw = math.ceil((1.0 / tau) * (2.0 * math.log(1.0 / tau)) ** 2)
    return min(raw, config.TREE_DEPTH_CAP)


@dataclass(frozen=True)
class Classification:
    """Verdict for one restricted polynomial.  ``sign`` and ``disagreement``
    are set whenever the close-to-constant test ran (so also on bad leaves,
    where they record how badly the test missed)."""

    kind: str
    sign: Optional[int] = None
    disagreement: Optional[Fraction] = None


def _verdict(inf: list[int], nonneg: int, rows: int, tau: float) -> tuple[str, int, int]:
    """(kind, majority sign or 0, rows off it) from Inf and Pr[p_rho >= 0] = nonneg / rows."""
    num, den = tau.as_integer_ratio()
    total = sum(inf)
    if total and max(inf) * den <= num * total:
        return REGULAR, 0, 0
    sign, off = (1, rows - nonneg) if 2 * nonneg >= rows else (-1, nonneg)
    return (CLOSE_TO_CONSTANT if off * den <= num * rows else BAD), sign, off


def _classification(kind: str, sign: int, off: int, rows: int) -> Classification:
    return Classification(kind, sign or None, Fraction(off, rows) if sign else None)


def classify_leaf(p_rho: DegTwoPoly, tau: float,
                  test_space: SampleSpace) -> Classification:
    """Classify p_rho as regular (by its exact influences), else as close
    to constant or bad by the exact probability under ``test_space`` that
    sgn(p_rho) disagrees with its majority sign."""
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
    _, lin, rows, _ = _ExactForm(p_rho).root
    pr_pos = test_space.probability(signs(p_rho, test_space.points) >= 0)
    verdict = _verdict([l * l + r for l, r in zip(lin, rows)], pr_pos.numerator,
                       pr_pos.denominator, tau)
    return _classification(*verdict, pr_pos.denominator)


class _ExactForm:
    """D p(x) = c + <l, x> + sum_{i<j} U_ij x_i x_j + sum_i d_i x_i^2 in Python
    ints.  A restriction p_rho is the state (c, l, r, free) of D p_rho, with
    r_i = sum_{j free} U_ij^2 so that Inf_i = l_i^2 + r_i, and l_i = r_i = 0
    off the free variables.  The diagonal d = D diag(Q) is kept apart so
    that display polynomials keep it on free variables."""

    def __init__(self, p: DegTwoPoly):
        den, c, lin, pairs = integer_form(p)
        self.quad, self.den = p.quad, den
        self.diag = [int(Fraction(v) * den) for v in np.diag(p.quad).tolist()]
        U = pairs + pairs.T                   # symmetric: row v is column v
        self.cols, self.squares = U.tolist(), (U * U).tolist()
        self.root = (c - sum(self.diag), lin.tolist(),
                     [sum(row) for row in self.squares], (True,) * p.n)

    def fix(self, state: tuple, v: int, s: int) -> tuple:
        """``state`` with x_v = s: c += d_v + s l_v, l += s U[:, v], r -= U[:, v]^2."""
        c, lin, rows, free = state
        free = free[:v] + (False,) + free[v + 1:]
        return (c + self.diag[v] + s * lin[v],
                [l + s * u if f else 0 for l, u, f in zip(lin, self.cols[v], free)],
                [r - q if f else 0 for r, q, f in zip(rows, self.squares[v], free)], free)

    def rounded(self, state: tuple, path: Path) -> tuple[list[float], np.ndarray, bool]:
        """(constant and linear part rounded once, quadratic part, whether rounding changed)."""
        exact = [state[0], *state[1]]
        try:
            coefs = [v / self.den for v in exact]     # int / int rounds once
        except OverflowError:
            raise ConfigurationError(
                f"p restricted along {list(path)} overflows a float") from None
        ratios = map(float.as_integer_ratio, coefs)
        changed = any(a * self.den != v * b for v, (a, b) in zip(exact, ratios))
        free = np.array(state[3], dtype=bool)
        return coefs, np.where(free[:, None] & free, self.quad, 0.0), changed


# --------------------------------------------------------------------------
# tree structure


@dataclass
class Leaf:
    poly: DegTwoPoly
    classification: Classification
    depth: int
    path: Path
    truncated: bool = False
    poly_rounded: bool = False      # ``poly`` is not the exact restriction

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
    """Complete restriction tree over {-1,1}^n."""

    n: int
    root: Union[Node, Leaf]

    def walk(self, step=None, state=None) -> Iterator[tuple[Union[Node, Leaf], Path, object]]:
        """(node, path, state) depth first, neg first; a child's state is step(state, var, s)."""
        stack = [(self.root, (), state)]
        while stack:
            node, path, state = stack.pop()
            yield node, path, state
            if isinstance(node, Node):
                stack += [(child, path + ((node.var, s),), step and step(state, node.var, s))
                          for s, child in ((1, node.pos), (-1, node.neg))]

    def leaves(self) -> Iterator[Leaf]:
        return (node for node, _, _ in self.walk() if isinstance(node, Leaf))

    def depth(self) -> int:
        return max(leaf.depth for leaf in self.leaves())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    @property
    def truncated(self) -> bool:
        return any(leaf.truncated for leaf in self.leaves())

    def route(self, x: np.ndarray) -> Leaf:
        """Walk the tree along an assignment and return the leaf reached."""
        node = self.root
        while isinstance(node, Node):
            node = node.pos if x[node.var] > 0 else node.neg
        return node


# --------------------------------------------------------------------------
# builder


def build_tree(p: DegTwoPoly, tau: float, max_depth: Optional[int] = None) -> DecisionTree:
    """Grow the restriction tree for p deterministically.

    Bad nodes split on their most influential variable (lowest index on
    ties) until the depth budget runs out.  Where config.TREE_DEPTH_CAP
    cuts the requested depth short, the bad leaves at the cap are marked
    ``truncated``; they stay bad, the conservative side.
    """
    if not 0.0 < tau < 0.5:
        raise ConfigurationError("tau must lie in (0, 1/2)")
    requested = default_max_depth(tau) if max_depth is None else int(max_depth)
    if requested < 0:
        raise ConfigurationError("max_depth must be nonnegative")
    effective = min(requested, config.TREE_DEPTH_CAP)
    # axis i of the cube is x_i, at index 0 for +1 and 1 for -1 (cube row order)
    cube = (signs(p, all_points(p.n)) >= 0).reshape((2,) * p.n).T
    form = _ExactForm(p)

    def grow(sub: np.ndarray, path: Path, state: tuple) -> Union[Node, Leaf]:
        # sub is the cube's view on the subcube, where p_rho = p
        depth = len(path)
        inf = [l * l + r for l, r in zip(state[1], state[2])]
        kind, sign, off = _verdict(inf, int(np.count_nonzero(sub)), sub.size, tau)
        if kind != BAD or depth >= effective:
            trunc = kind == BAD and requested > effective
            coefs, quad, rounded = form.rounded(state, path)
            return Leaf(poly=DegTwoPoly._trusted(p.n, coefs[0], np.array(coefs[1:]), quad),
                        classification=_classification(kind, sign, off, sub.size),
                        depth=depth, path=path, truncated=trunc, poly_rounded=rounded)
        var = max(range(p.n), key=inf.__getitem__)     # first of the largest
        neg, pos = (grow(sub[(slice(None),) * var + (slice(k, k + 1),)],
                         path + ((var, s),), form.fix(state, var, s))
                    for k, s in ((1, -1), (0, 1)))
        return Node(var=var, neg=neg, pos=pos)

    return DecisionTree(n=p.n, root=grow(cube, (), form.root))


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
    worst_path: Optional[Path]
    worst_gap: Fraction


@dataclass
class CompositionReport:
    """Whether each leaf holds p's exact restriction, rounded and flagged."""

    passed: bool
    leaves_checked: int
    broken_path: Optional[Path]


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
    leaves = list(tree.leaves())
    for leaf in leaves:
        mask = np.ones(space.num_points, dtype=bool)
        for var, val in leaf.path:
            mask &= space.points[:, var] == val
        gap = abs(space.probability(mask) - leaf.mass)
        if gap > worst_gap:
            worst_gap, worst_path = gap, leaf.path
    return SpaceReachReport(passed=worst_gap == 0, order=space.k_claimed,
                            leaves_checked=len(leaves), worst_path=worst_path,
                            worst_gap=worst_gap)


def _composition_check(tree: DecisionTree, p: DegTwoPoly) -> CompositionReport:
    if p.n != tree.n:
        raise ConfigurationError("polynomial and tree dimension mismatch")
    form, broken, checked = _ExactForm(p), [], 0
    for leaf, path, state in tree.walk(form.fix, form.root):
        if isinstance(leaf, Leaf):
            checked += 1
            coefs, quad, rounded = form.rounded(state, path)
            if (leaf.path != path or leaf.poly_rounded != rounded
                    or [leaf.poly.constant, *leaf.poly.linear.tolist()] != coefs
                    or not np.array_equal(leaf.poly.quad, quad)):
                broken.append(path)
    return CompositionReport(passed=not broken, leaves_checked=checked,
                             broken_path=broken[0] if broken else None)


def tree_report(tree: DecisionTree, p: Optional[DegTwoPoly] = None,
                space: Optional[SampleSpace] = None) -> TreeReport:
    """Exact per-class mass accounting plus optional exact checks.

    Masses are dyadic rationals summing to exactly 1 on a complete tree.
    On a truncated tree the class masses are bounds, not values: a
    truncated leaf might have resolved into any class had it been grown,
    so its mass is reported separately and the report is flagged inexact.
    With ``space`` (of order at least the depth), each leaf's reach
    probability under it must equal 2^-depth.  With ``p``, each leaf's
    polynomial must be p restricted exactly along its path and rounded
    once per coefficient, with ``poly_rounded`` set where that rounded.
    """
    mass = dict.fromkeys((REGULAR, CLOSE_TO_CONSTANT, BAD, "truncated"), Fraction(0))
    disagreement_mass = Fraction(0)
    leaves = list(tree.leaves())
    for leaf in leaves:
        kind = "truncated" if leaf.truncated else leaf.classification.kind
        mass[kind] += leaf.mass
        if kind == CLOSE_TO_CONSTANT:
            disagreement_mass += leaf.mass * leaf.classification.disagreement
    if sum(mass.values()) != 1:
        raise ConfigurationError(
            f"leaf masses sum to {sum(mass.values())}, tree is not complete")
    decomposition = DeviationDecomposition(
        regular_mass=mass[REGULAR], close_mass=mass[CLOSE_TO_CONSTANT],
        bad_mass=mass[BAD], truncated_mass=mass["truncated"],
        close_disagreement_mass=disagreement_mass)
    by_class = {k: v for k, v in mass.items() if k != "truncated" or v}
    hist = Counter(leaf.depth for leaf in leaves)
    return TreeReport(
        mass_by_class=by_class, depth_histogram=dict(sorted(hist.items())),
        deviation=decomposition, exact=not any(leaf.truncated for leaf in leaves),
        leaf_count=len(leaves), depth=max(hist),
        space_check=_space_reach_check(tree, space) if space is not None else None,
        composition_check=_composition_check(tree, p) if p is not None else None)


# --------------------------------------------------------------------------
# serialization: nested JSON, {var, neg, pos} at internal nodes,
# {leaf: {class, poly, mass, ...}} at leaves.  Variables are 1-based in the
# file, matching the polynomial text format.


def _node_to_obj(node: Union[Node, Leaf]):
    if isinstance(node, Leaf):
        cls = node.classification
        leaf = {"class": cls.kind, "mass": str(node.mass),
                "poly": dumps_poly(node.poly), "sign": cls.sign,
                "disagreement": None if cls.disagreement is None else str(cls.disagreement),
                "truncated": node.truncated or None,
                "poly_rounded": node.poly_rounded or None}
        return {"leaf": {k: v for k, v in leaf.items() if v is not None}}
    return {"var": node.var + 1,
            "neg": _node_to_obj(node.neg),
            "pos": _node_to_obj(node.pos)}


def dump_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_node_to_obj(tree.root), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _obj_to_node(obj, depth: int, path: Path) -> Union[Node, Leaf]:
    if not isinstance(obj, dict):
        raise FormatError("tree nodes must be JSON objects")
    if "leaf" in obj:
        rec = obj["leaf"]
        try:
            kind = rec["class"]
            mass = Fraction(rec["mass"])
            p = loads_poly(rec["poly"])
            disagreement = rec.get("disagreement")
            disagreement = None if disagreement is None else Fraction(disagreement)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed leaf record: {exc}") from exc
        if kind not in (REGULAR, CLOSE_TO_CONSTANT, BAD):
            raise FormatError(f"unknown leaf class {kind!r}")
        if mass != Fraction(1, 2 ** depth):
            raise FormatError(
                f"leaf at depth {depth} stores mass {mass}, expected 1/{2 ** depth}")
        sign = rec.get("sign")
        if kind == REGULAR:
            if sign is not None or disagreement is not None:
                raise FormatError("a regular leaf carries no sign or disagreement")
        elif type(sign) is not int or sign not in (-1, 1):
            raise FormatError(f"{kind} leaf needs a sign of -1 or 1, not {sign!r}")
        elif disagreement is None or not 0 <= disagreement <= Fraction(1, 2):
            raise FormatError(
                f"{kind} leaf needs a disagreement in [0, 1/2], not {disagreement}")
        cls = Classification(kind=kind, sign=sign, disagreement=disagreement)
        return Leaf(poly=p, classification=cls, depth=depth, path=path,
                    truncated=bool(rec.get("truncated", False)),
                    poly_rounded=bool(rec.get("poly_rounded", False)))
    if not {"var", "neg", "pos"} <= obj.keys():
        raise FormatError("internal nodes need var, neg, and pos")
    var = obj["var"]
    if type(var) is not int or var < 1:
        raise FormatError(f"variable {var!r} is not a 1-based index")
    var -= 1
    if any(var == u for u, _ in path):
        raise FormatError(f"variable {var + 1} is fixed twice on one path")
    return Node(var=var,
                neg=_obj_to_node(obj["neg"], depth + 1, path + ((var, -1),)),
                pos=_obj_to_node(obj["pos"], depth + 1, path + ((var, 1),)))


def load_tree(path) -> DecisionTree:
    try:
        obj = json.loads(read_ascii(path, "tree"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"tree file {path}: {exc}") from None
    tree = DecisionTree(n=0, root=_obj_to_node(obj, 0, ()))
    leaves = list(tree.leaves())
    tree.n = leaves[0].poly.n
    if any(leaf.poly.n != tree.n for leaf in leaves):
        raise FormatError("leaf polynomials differ in dimension")
    if any(var >= tree.n for leaf in leaves for var, _ in leaf.path):
        raise FormatError(f"a path fixes a variable outside 1..{tree.n}")
    return tree
