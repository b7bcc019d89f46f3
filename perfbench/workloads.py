"""The benchmark's four workloads: their inputs, operations and checks.

Each workload is built by ``build(name, seed, workdir)``, which makes
every input (polynomials, matrices, input files) from fixed base seeds
and the run's ``--seed``, and returns the operations of one round.  An
operation is one ``ptf-fool`` command, called in-process through
``cli.main``, or one call into the package's public API.  Its check runs
after the round, untimed, against the oracles in ``oracles.py``.

Seeds and steadiness: where an operation's cost depends on the instance
(the LP and the restriction tree), ``--seed`` draws a random signed
permutation of the variables of a fixed base instance.  Every seed then
gives a different input of exactly the same difficulty, so the spread
between runs measures the machine and not the draw.  The failing
operation of ``lp-witness`` uses a fixed input that no seed changes.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from ptffool import cli, fooling, gw, moments, poly, spaces, tree
from ptffool.poly import DegTwoPoly

import oracles
from oracles import IntPoly, require

BASE_SEED = 9113389          # base instances; --seed relabels them or draws the rest
LP_TOL = 1e-9                # lp_min <= uniform <= lp_max, as the LP guarantees
MONOTONE_TOL = 1e-7          # deviation may not grow with k beyond this
GW_ALLOWANCE = 0.25          # |mean cut - exact| <= 0.25 + ci


@dataclass
class Op:
    """One timed operation and its untimed check."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    is_failure: Callable[[Any], bool] = lambda result: False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    round_check: Callable[[dict[str, Any]], None] = lambda results: None
    scratch: list[str] = field(default_factory=list)   # files removed after a round

    def clean(self) -> None:
        for path in self.scratch:
            if os.path.exists(path):
                os.remove(path)


# --------------------------------------------------------------------------
# inputs


def _base_rng(*tag: int) -> np.random.Generator:
    return np.random.default_rng([BASE_SEED, *tag])


def dyadic_poly(n: int, rng: np.random.Generator) -> DegTwoPoly:
    """Random degree-2 polynomial with coefficients on the 1/16 grid, so
    float evaluation is exact and sgn(p) has no rounding ties."""
    grid = 16.0
    upper = np.triu(np.round(rng.normal(size=(n, n)) * grid) / grid, 1)
    lin = np.round(rng.normal(size=n) * grid) / grid
    const = float(np.round(rng.normal() * grid) / grid)
    return DegTwoPoly(n=n, constant=const, linear=lin, quad=(upper + upper.T) / 2)


def max_influence_ratio(p: DegTwoPoly) -> float:
    off = 2.0 * (p.quad - np.diag(np.diag(p.quad)))
    inf = p.linear ** 2 + np.sum(off ** 2, axis=1)
    return float(np.max(inf) / np.sum(inf))


def regular_poly(n: int, tau: float, rng: np.random.Generator) -> DegTwoPoly:
    """First draw of ``dyadic_poly`` whose largest influence share is <= tau."""
    while True:
        p = dyadic_poly(n, rng)
        if max_influence_ratio(p) <= tau:
            return p


def decaying_poly(n: int, rate: float = 0.92) -> DegTwoPoly:
    """Polynomial whose coefficients decay as rate^i, on the 2^-16 grid, so
    restrictions are exact in floating point."""
    rng = _base_rng(4, n)
    pairs = n * (n - 1) // 2
    w = np.round(rate ** np.arange(pairs + n) * 2.0 ** 16) / 2.0 ** 16
    w *= rng.choice([-1.0, 1.0], size=w.size)
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = w[:pairs]
    return DegTwoPoly(n=n, constant=0.0, linear=w[pairs:],
                      quad=(upper + upper.T) / 2)


def signed_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Matrix D with one ±1 per row and column: the map x -> D x."""
    D = np.zeros((n, n))
    D[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], size=n)
    return D


def relabel(p: DegTwoPoly, D: np.ndarray) -> DegTwoPoly:
    """q(x) = p(D x): the same polynomial with variables renamed and negated."""
    return DegTwoPoly(n=p.n, constant=p.constant, linear=D.T @ p.linear,
                      quad=D.T @ p.quad @ D)


def gaussian_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return 0.5 * (M + M.T)


def call_cli(argv: list[str]) -> int:
    """ptf-fool in-process; its stdout and stderr are kept off the
    benchmark's own output."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(argv)


def _exit_nonzero(rc: int) -> bool:
    return rc != 0


def _cube_signs(p: DegTwoPoly) -> np.ndarray:
    return oracles.sgn_values(IntPoly.of(p), oracles.cube_points(p.n))


def _require_uniform(reported, target: np.ndarray) -> None:
    mine = Fraction(int(target.sum()), target.size)
    require(Fraction(reported) == mine,
            f"uniform expectation {reported} != exact count {mine}")


def _require_order(rep, u: float) -> None:
    require(rep.lp_min <= u + LP_TOL and u - LP_TOL <= rep.lp_max,
            f"lp_min {rep.lp_min} <= uniform {u} <= lp_max {rep.lp_max} fails")


def _require_certificate(coeffs, direction: str, target: np.ndarray, n: int) -> None:
    bad = oracles.certificate_violations(coeffs, direction, target, n)
    require(bad == 0, f"{direction} certificate is on the wrong side at {bad} points")


# --------------------------------------------------------------------------
# lp-witness: ptf-fool fool lp --emit-witness --emit-cert --report


# One round, in order.  The four (10, 2) instances are different
# relabelings, two before and two after the long failing solve, so the
# median operation is sampled across the round.
LP_WITNESS_ROUND = [(8, 2), (10, 2), (10, 2), (10, 5), (10, 2), (10, 2), (8, 3)]
LP_WITNESS_FAULT = (10, 5)   # witness support 638 > 512 on both sides: exits 2


def _fool_lp_op(workdir: str, tag: str, p: DegTwoPoly, k: int,
                scratch: list[str]) -> Op:
    stem = os.path.join(workdir, tag)
    poly_file, witness, cert, report = (stem + ext for ext in
                                        (".poly", ".space", ".cert.json", ".json"))
    poly.dump_poly(p, poly_file)
    scratch += [witness, cert, report]
    argv = ["fool", "lp", "--poly", poly_file, "--k", str(k),
            "--emit-witness", witness, "--emit-cert", cert, "--report", report]
    ip = IntPoly.of(p)

    def check(rc: int) -> None:
        n = p.n
        signs = _cube_signs(p)
        with open(report, encoding="ascii") as fh:
            rep = json.load(fh)
        _require_uniform(rep["uniform_expectation"], signs)
        with open(cert, encoding="ascii") as fh:
            certs = json.load(fh)
        upper = {}
        for side in ("upper", "lower"):
            direction, coeffs = oracles.parse_certificate(certs[side])
            require(direction == side, f"{side} certificate says {direction}")
            _require_certificate(coeffs, direction, signs, n)
            if side == "upper":
                upper = coeffs
        wn, _, pts, weights = oracles.read_space_file(witness)
        require(wn == n and weights is not None, "witness must be a weighted space on n")
        require(all(w >= 0 for w in weights), "witness has a negative weight")
        require(sum(weights) == 1, "witness weights do not sum to 1")
        bad = oracles.biased_masks(pts, k, weights)
        require(not bad, f"witness biased on {len(bad)} parities of order <= {k}")
        w_signs = oracles.sgn_values(ip, pts)
        e_witness = sum((w * int(s) for w, s in zip(weights, w_signs)), Fraction(0))
        q_empty = upper.get((), Fraction(0))
        require(e_witness <= q_empty and q_empty - e_witness <= Fraction(1, 10 ** 6),
                f"weak duality: E_witness {float(e_witness)} vs q_empty {float(q_empty)}")

    return Op(name=f"fool-lp-{tag}", run=lambda: call_cli(argv), check=check,
              is_failure=_exit_nonzero)


def lp_witness(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    scratch: list[str] = []
    ops = []
    for i, (n, k) in enumerate(LP_WITNESS_ROUND):
        p = dyadic_poly(n, _base_rng(1, n, k))
        if (n, k) != LP_WITNESS_FAULT:
            p = relabel(p, signed_permutation(rng, n))
        ops.append(_fool_lp_op(workdir, f"n{n}-k{k}-{i}", p, k, scratch))
    return Workload("lp-witness", ops, scratch=scratch)


# --------------------------------------------------------------------------
# lp-sweep: fooling.worst_case_lp over k, and fooling.intersection_deviation


SWEEP_N, SWEEP_KMAX, SWEEP_TAU = 9, 6, 0.2
# Two intersections at k = 4, of p with two other polynomials: together with
# the k = 4 sweep step they put three like-sized operations at the median.
INTERSECTION_K, INTERSECTION_PARTNERS = 4, (3, 5)


def _sweep_op(p: DegTwoPoly, k: int) -> Op:
    def check(rep) -> None:
        signs = _cube_signs(p)
        _require_uniform(rep.uniform_expectation, signs)
        _require_order(rep, float(rep.uniform_expectation))
        for cert in (rep.certificate_upper, rep.certificate_lower):
            require(cert.verified, f"{cert.direction} certificate not verified")
            _require_certificate(cert.coefficients, cert.direction, signs, p.n)

    return Op(name=f"worst-case-lp-n{p.n}-k{k}",
              run=lambda: fooling.worst_case_lp(p, k, emit_witness=False),
              check=check)


def _intersection_op(ps: list[DegTwoPoly], k: int, tag: int) -> Op:
    def check(rep) -> None:
        points = oracles.cube_points(ps[0].n)
        member = np.ones(points.shape[0], dtype=np.int64)
        for q in ps:
            member &= (IntPoly.of(q).values(points) >= 0).astype(np.int64)
        _require_uniform(rep.uniform_expectation, member)
        _require_order(rep, float(rep.uniform_expectation))
        for cert in (rep.certificate_upper, rep.certificate_lower):
            _require_certificate(cert.coefficients, cert.direction, member, ps[0].n)

    return Op(name=f"intersection-n{ps[0].n}-k{k}-q{tag}",
              run=lambda: fooling.intersection_deviation(ps, k), check=check)


def lp_sweep(seed: int, workdir: str) -> Workload:
    n = SWEEP_N
    D = signed_permutation(np.random.default_rng(seed), n)
    p = relabel(regular_poly(n, SWEEP_TAU, _base_rng(2, n)), D)
    sweep = [_sweep_op(p, k) for k in range(1, SWEEP_KMAX + 1)]
    ops = sweep + [_intersection_op([p, relabel(dyadic_poly(n, _base_rng(tag, n)), D)],
                                    INTERSECTION_K, tag)
                   for tag in INTERSECTION_PARTNERS]

    def round_check(results: dict[str, Any]) -> None:
        devs = [results[op.name].deviation for op in sweep if op.name in results]
        for lo, hi in zip(devs, devs[1:]):
            require(hi <= lo + MONOTONE_TOL, f"deviation grew with k: {devs}")

    return Workload("lp-sweep", ops, round_check=round_check)


# --------------------------------------------------------------------------
# spaces-gw: kwise build / verify, and k-wise Gaussian hyperplane rounding


SPACES = [("vandermonde_bit", 16, 4),     # 2^16 points, 2,516 parities
          ("bch_parity", 16, 6)]          # 2^15 points, 14,892 parities
# Rounding is split into three runs of 200 trials with their own seeds, so
# that three like-sized operations sit at the workload's median.
GW_K, GW_DIM, GW_TRIALS, GW_RUNS = 1600, 3, 200, 3


def _write_space(path: str, n: int, k: int, points: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {k} {points.shape[0]} weighted:0\n")
        fh.write("\n".join(" ".join(str(int(v)) for v in row) for row in points))
        fh.write("\n")


def _space_ops(workdir: str, method: str, n: int, k: int,
               flip: Optional[tuple[float, float]], scratch: list[str]) -> list[Op]:
    path = os.path.join(workdir, f"{method}-n{n}-k{k}.space")
    scratch.append(path)
    tag = f"{method}-n{n}-k{k}"

    def check_build(rc: int) -> None:
        fn, fk, pts, weights = oracles.read_space_file(path)
        require((fn, fk, weights) == (n, k, None), f"{tag}: wrong space header")
        bad = oracles.biased_masks(pts, k)
        require(not bad, f"{tag}: {len(bad)} biased parities of order <= {k}")

    def check_verify(rc: int) -> None:
        if flip is None:
            return
        # Negative control: one flipped coordinate must make verify fail.
        _, _, pts, _ = oracles.read_space_file(path)
        row, col = int(flip[0] * pts.shape[0]), int(flip[1] * n)
        pts[row, col] = -pts[row, col]
        broken = os.path.join(workdir, f"{tag}-flipped.space")
        _write_space(broken, n, k, pts)
        try:
            rc_broken = call_cli(["kwise", "verify", "--space", broken])
        finally:
            os.remove(broken)
        require(rc_broken == 1, f"{tag}: verify exits {rc_broken} on a flipped copy")

    build = ["kwise", "build", "--n", str(n), "--k", str(k), "--method", method,
             "--out", path]
    verify = ["kwise", "verify", "--space", path]
    return [Op(f"kwise-build-{tag}", lambda: call_cli(build), check_build,
               _exit_nonzero),
            Op(f"kwise-verify-{tag}", lambda: call_cli(verify), check_verify,
               _exit_nonzero)]


def spaces_gw(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    scratch: list[str] = []
    ops: list[Op] = []
    for i, (method, n, k) in enumerate(SPACES):
        flip = tuple(rng.random(2)) if i == 0 else None
        ops += _space_ops(workdir, method, n, k, flip, scratch)

    graph = gw.cycle_graph(5)
    vecs = rng.normal(size=(graph.num_vertices, GW_DIM))
    emb = gw.Embedding(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))

    def gw_op(round_seed: int) -> Op:
        def run():
            gspace = spaces.build_kwise_gaussian(GW_DIM, GW_K)
            return gw.round_with_space(graph, emb, gspace, trials=GW_TRIALS,
                                       seed=round_seed)

        def check(rep) -> None:
            exact = oracles.expected_cut(graph.edges, emb.vectors)
            require(abs(rep.exact_cut - exact) <= 1e-9,
                    f"exact cut {rep.exact_cut} != {exact}")
            require(oracles.rounding_within_allowance(
                        rep.mean_cut, rep.ci, graph.edges, emb.vectors, GW_ALLOWANCE),
                    f"mean cut {rep.mean_cut} off exact {exact} by more than "
                    f"{GW_ALLOWANCE} + {rep.ci}")

        return Op(f"gw-round-c5-k{GW_K}-seed{round_seed}", run, check)

    ops += [gw_op(int(s)) for s in rng.integers(2 ** 31, size=GW_RUNS)]
    return Workload("spaces-gw", ops, scratch=scratch)


# --------------------------------------------------------------------------
# moments-tree: eigenvalue moment bound, restriction tree, spectral split,
# mollifier derivative norms


# (matrix, k): k = 4, 6, 8 on one matrix and k = 8 on a second one, so two
# like-sized operations sit at the median.
EIGEN_N = 10
EIGEN_CASES = [(0, 4), (0, 6), (0, 8), (1, 8)]
TREE_N, TREE_TAU = 12, 0.05
SPECTRAL_N, SPECTRAL_DELTA = 100, 5.0
EIGEN_RATIO_CAP = 128.0


def _eigen_op(A: np.ndarray, k: int, tag: int) -> Op:
    def check(rep) -> None:
        exact = oracles.trace_centered_moment(A, k)
        require(rep.value_exact == exact, f"value_exact {rep.value_exact} != {exact}")
        require(abs(rep.value - float(exact)) <= 1e-9 * abs(float(exact)),
                f"value {rep.value} != exact {float(exact)}")
        require(rep.ratio <= EIGEN_RATIO_CAP, f"ratio {rep.ratio} > {EIGEN_RATIO_CAP}")

    return Op(f"eigenbound-n{A.shape[0]}-k{k}-a{tag}",
              run=lambda: moments.eigenbound_ratio(A, k), check=check)


def _tree_op(p: DegTwoPoly, tau: float) -> Op:
    ip = IntPoly.of(p)

    def check(t) -> None:
        leaves = list(t.leaves())
        require(sum((leaf.mass for leaf in leaves), Fraction(0)) == 1,
                "leaf masses do not sum to 1")
        points = oracles.cube_points(p.n)
        values = ip.values(points)
        routed: dict[int, list[int]] = {}
        for idx, x in enumerate(points):
            routed.setdefault(id(t.route(x)), []).append(idx)
        for leaf in leaves:
            idxs = routed.get(id(leaf), [])
            require(len(idxs) * leaf.mass.denominator == len(points),
                    f"leaf at depth {leaf.depth} receives {len(idxs)} points")
            lp = IntPoly.of(leaf.poly)
            mine = values[idxs] * lp.den
            theirs = lp.values(points[idxs]) * ip.den
            require(bool(np.all(mine == theirs)), "leaf polynomial differs from p")
            cls = leaf.classification
            if cls.kind == tree.CLOSE_TO_CONSTANT:
                signs = np.where(values[idxs] >= 0, 1, -1)
                disagree = Fraction(int(np.count_nonzero(signs != cls.sign)), len(idxs))
                require(disagree == cls.disagreement and disagree <= tau,
                        f"leaf disagreement {cls.disagreement} vs {disagree}, tau {tau}")

    return Op(f"build-tree-n{p.n}-tau{tau}",
              run=lambda: tree.build_tree(p, tau), check=check)


def _spectral_op(p: DegTwoPoly, delta: float) -> Op:
    def check(dec) -> None:
        A = p.quad
        ev = np.linalg.eigvalsh(A)[::-1]
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ev))))
        require(float(np.max(np.abs(dec.eigen.eigenvalues - ev))) <= tol,
                "eigenvalues differ from numpy.linalg.eigh")
        require(float(np.max(np.abs(dec.a1 - dec.a2 + dec.a3 - A))) <= tol,
                "bands do not reconstruct the matrix")
        for band in (dec.a1, dec.a2):
            w = np.linalg.eigvalsh(band)
            require(float(w.min()) >= -tol, "a PSD band has a negative eigenvalue")
            require(bool(np.all(w[np.abs(w) > tol] >= delta - tol)),
                    "a PSD band has a nonzero eigenvalue below delta")
        w3 = np.linalg.eigvalsh(dec.a3)
        require(float(np.max(np.abs(w3))) < delta + tol, "middle band reaches delta")
        require(abs(dec.upsilon - float(np.trace(dec.a3))) <= tol * p.n,
                "upsilon is not the middle band's trace")

    return Op(f"spectral-decompose-n{p.n}",
              run=lambda: poly.spectral_decompose(p, delta), check=check)


def _ftmol_op(workdir: str, scratch: list[str]) -> Op:
    report = os.path.join(workdir, "ftmol-l1-d2.json")
    scratch.append(report)
    argv = ["ftmol", "check", "--d", "2", "--suite", "l1", "--report", report]

    def check(rc: int) -> None:
        with open(report, encoding="ascii") as fh:
            reps = json.load(fh)["reports"]
        require(len(reps) == 10, f"expected 10 derivative norms, got {len(reps)}")
        for rep in reps:
            bound = 2 ** sum(rep["beta"])
            require(rep["value"] <= bound, f"L1 norm {rep['value']} > {bound}")

    return Op("ftmol-check-l1-d2", lambda: call_cli(argv), check, _exit_nonzero)


def moments_tree(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    scratch: list[str] = []
    mats = [gaussian_symmetric(EIGEN_N, rng) for _ in range(2)]
    ops = [_eigen_op(mats[a], k, a) for a, k in EIGEN_CASES]
    base = decaying_poly(TREE_N)
    ops.append(_tree_op(relabel(base, signed_permutation(rng, TREE_N)), TREE_TAU))
    ops.append(_spectral_op(DegTwoPoly(n=SPECTRAL_N,
                                       quad=gaussian_symmetric(SPECTRAL_N, rng)),
                            SPECTRAL_DELTA))
    ops.append(_ftmol_op(workdir, scratch))
    return Workload("moments-tree", ops, scratch=scratch)


WORKLOADS = {"lp-witness": lp_witness, "lp-sweep": lp_sweep,
             "spaces-gw": spaces_gw, "moments-tree": moments_tree}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)

