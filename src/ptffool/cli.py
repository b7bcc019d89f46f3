"""Command line driver.

One subcommand per capability, shared reproducibility plumbing: every
JSON report embeds the run configuration, a hash of it, the package
version, and the master seed, so a stored report can be replayed and
compared byte for byte (the timestamp field is the single exception and
comparisons must exclude it).

Exit codes follow a small contract:

  0   everything the command checked passed
  1   at least one check failed
  2   nothing failed but at least one check was inconclusive, or a
      resource budget ran out before the check could finish
  64  the invocation itself was invalid (bad flag, malformed file)

Randomness never comes from global state.  Every generator is
``np.random.default_rng`` (PCG64) seeded explicitly: from the command's
--seed, or from a task seed spawned off the master seed by a stable label
through a SeedSequence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import zlib
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__, config, fooling, gw, moments, mollify, spaces, tree
from .errors import (ConfigurationError, FormatError, InconclusiveError,
                     InvalidOrderError, PtfFoolError, ResourceBudgetError)
from .poly import (DegTwoPoly, critical_index, influences, load_poly,
                   regularity, spectral_decompose)


def _version() -> str:
    return f"ptffool-{__version__}"


def _plain(obj):
    """Recursively convert report objects into JSON-serializable data."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {str(k) if not isinstance(k, str) else k: _plain(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _rng_seed(master: int, label: str) -> int:
    """Stable 63-bit task seed spawned from the master seed by label."""
    ss = np.random.SeedSequence(entropy=master,
                                spawn_key=(zlib.crc32(label.encode()),))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def _write(text: str, path: Optional[str]) -> None:
    """Write text to the file at path when one was given, stdout otherwise."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: Parsed arguments left out of a report's config: the handler and the
#: output paths, which change where results go but not what they are.
_OUTPUT_ARGS = ("func", "report", "out", "csv", "emit_witness", "emit_cert")

#: Parsed arguments that name input files, whose contents a report hashes.
_INPUT_ARGS = ("poly", "space", "graph", "embedding")


def _emit(payload: dict, path: Optional[str], args: argparse.Namespace) -> None:
    """Attach the reproducibility envelope and write JSON.

    The report's ``config`` is the command and every parsed argument but
    the output paths, its ``inputs`` map each input file given to the
    sha256 of its bytes, and ``config_hash`` is the sha256 of both, so two
    runs share a hash exactly when they computed from the same parameters
    and the same input files.  Reports go to the declared path when one was
    given, stdout otherwise; nothing else is ever written.
    """
    cfg = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ARGS}
    inputs = {}
    for name in _INPUT_ARGS:
        file = getattr(args, name, None)
        if file:
            with open(file, "rb") as fh:
                inputs[name] = hashlib.sha256(fh.read()).hexdigest()
    body = dict(payload)
    body["config"] = cfg
    body["inputs"] = inputs
    body["config_hash"] = hashlib.sha256(json.dumps(
        {"config": cfg, "inputs": inputs}, sort_keys=True).encode()).hexdigest()
    body["version"] = _version()
    body["master_seed"] = args.seed
    body["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write(json.dumps(_plain(body), indent=1, sort_keys=True) + "\n", path)


def _statuses_to_exit(statuses: list[tuple[str, str]]) -> int:
    # stderr so that a JSON report on stdout stays machine-readable
    for name, st in statuses:
        print(f"[{st}] {name}", file=sys.stderr)
    if any(st == "fail" for _, st in statuses):
        return 1
    if any(st == "inconclusive" for _, st in statuses):
        return 2
    return 0


# --------------------------------------------------------------------------
# subcommands


def _cmd_kwise_build(args) -> int:
    space = spaces.build_kwise_bernoulli(args.n, args.k, method=args.method)
    spaces.dump_sample_space(space, args.out)
    print(f"wrote {args.out}: n={space.n} k={space.k_claimed} "
          f"points={space.num_points} method={space.method}")
    return 0


def _cmd_kwise_verify(args) -> int:
    space = spaces.load_sample_space(args.space)
    order = args.k if args.k is not None else space.k_claimed
    rep = spaces.verify_kwise_exact(space, order)
    print(f"order {rep.order}: {'pass' if rep.passed else 'FAIL'} "
          f"({rep.subsets_checked} parities, worst bias {rep.worst_bias})")
    return 0 if rep.passed else 1


def _cmd_poly_info(args) -> int:
    p = load_poly(args.poly)
    inf, total = influences(p)
    payload: dict = {
        "n": p.n,
        "constant": float(p.constant),
        "trace_fold": float(p.trace_fold()),
        "influences": [float(v) for v in inf],
        "total_influence": total,
    }
    if total > 0.0:
        reg = regularity(p, args.tau)
        ci = critical_index(p, args.tau)
        payload.update(tau=args.tau, max_ratio=reg.max_ratio,
                       is_regular=reg.is_regular,
                       critical_index=ci.index,
                       no_finite_index=ci.no_finite_index)
    else:
        payload.update(tau=args.tau, max_ratio=None, is_regular=None,
                       critical_index=None, no_finite_index=None)
    _emit(payload, args.report, args)
    return 0


def _cmd_poly_decompose(args) -> int:
    p = load_poly(args.poly)
    dec = spectral_decompose(p, args.delta)
    inv = dec.invariant_report(p.quad)
    payload = {
        "n": p.n, "delta": args.delta, "upsilon": float(dec.upsilon),
        "constant": float(p.constant),
        "linear": [float(v) for v in dec.linear],
        "band_matrices": {"a1": dec.a1, "a2": dec.a2, "a3": dec.a3},
        "invariants": inv,
    }
    _emit(payload, args.out, args)
    return 0 if all(bool(v) for v in inv.values()) else 1


def _cmd_moments(args) -> int:
    p = load_poly(args.poly)
    pure_quadratic = (not np.any(p.linear != 0.0)) and p.constant == 0.0
    if args.mode == "exact":
        if (args.center == "trace" and pure_quadratic and args.k % 2 == 0
                and p.n <= config.ENUM_MAX_N):
            rep = moments.eigenbound_ratio(p.quad, args.k, strict=False)
        else:
            rep = moments.exact_moment_hypercube(p, args.k, center=args.center)
    else:
        seed = _rng_seed(args.seed, f"moments:{args.poly}:{args.k}")
        rep = moments.mc_moment_hypercube(p, args.k, samples=args.samples,
                                          seed=seed, center=args.center)
    payload = {"k": rep.k, "value": rep.value, "bound": rep.bound,
               "ratio": rep.ratio, "passed": rep.passed,
               "seed": rep.seed, "samples": rep.samples,
               "mode": rep.exact_or_mc, "center": args.center}
    if rep.value_exact is not None:
        payload["value_exact"] = rep.value_exact
    _emit(payload, args.report, args)
    return 0 if rep.passed else 1


def _multi_indices(d: int, max_order: int):
    if d == 1:
        return [(j,) for j in range(max_order + 1)]
    out = []
    for total in range(max_order + 1):
        for first in range(total + 1):
            out.append((first, total - first))
    return out


def _cmd_ftmol(args) -> int:
    d, c = args.d, args.c
    if not (math.isfinite(c) and c > 0):    # every suite's report names c
        raise ConfigurationError(f"--c must be finite and positive, got {c}")
    statuses: list[tuple[str, str]] = []
    reports: list = []

    def note(name: str, passed: bool, inconclusive: bool = False) -> None:
        statuses.append((name, "inconclusive" if inconclusive
                         else "pass" if passed else "fail"))

    if args.suite == "unit":
        rep = mollify.check_unit_integral(d, c)
        reports.append(rep)
        note(f"unit integral d={d} c={c}", rep.passed)
    elif args.suite == "l1":
        if d > 2:
            raise ConfigurationError("derivative norms are implemented for d <= 2")
        for beta in _multi_indices(d, 3):
            rep = mollify.deriv_l1_norm(d, beta)
            reports.append(rep)
            note(f"L1 norm of derivative {beta}", rep.passed, rep.inconclusive)
    elif args.suite == "tail":
        curve = mollify.tail_mass_curve(d, [1.0, 2.0, 4.0, 8.0, 16.0])
        reports.extend(curve)
        masses = [r.value for r in curve]
        note("tail mass monotone decreasing",
             all(b <= a for a, b in zip(masses, masses[1:])))
        note("tail identity gaps small",
             all(r.identity_gap <= 1e-6 for r in curve))
    elif args.suite == "moment":
        for alpha in _multi_indices(d, 4):
            if any(a % 2 for a in alpha):
                continue
            rep = mollify.squared_bump_moment(d, alpha)
            reports.append(rep)
            note(f"squared-bump moment {alpha}", rep.relative_gap <= 1e-6)
    elif args.suite == "mollify":
        m = mollify.Mollifier(d, c)
        rep = m.self_check()
        reports.append(rep)
        note("mollifier kernel normalization", rep.passed)
        if d == 1:
            val = m.mollify(mollify.HalfLine(0.0), [0.0])
            reports.append({"boundary_value": val})
            note("half-line boundary value 1/2", abs(val - 0.5) <= 1e-4)
        else:
            val = m.mollify(mollify.Quadrant((0.0, 0.0)), [0.0, 0.0])
            reports.append({"corner_value": val})
            note("quadrant corner value 1/4", abs(val - 0.25) <= 1e-4)
    else:
        raise ConfigurationError(f"unknown suite {args.suite!r}")

    payload = {"d": d, "c": c, "suite": args.suite,
               "checks": [{"name": n, "status": s} for n, s in statuses],
               "reports": reports}
    _emit(payload, args.report, args)
    return _statuses_to_exit(statuses)


def _cmd_fool_exact(args) -> int:
    p = load_poly(args.poly)
    space = spaces.load_sample_space(args.space)
    rep = fooling.deviation(p, space)
    payload = {"n": rep.n, "k": rep.k,
               "uniform_expectation": rep.uniform_expectation,
               "space_expectation": rep.space_expectation,
               "deviation": rep.deviation,
               "indicator_deviation": rep.indicator_deviation}
    _emit(payload, args.report, args)
    return 0


def _certificate_payload(cert) -> dict:
    return {"direction": cert.direction, "k": cert.k,
            "expectation": cert.expectation, "gap": cert.gap,
            "lp_gap": cert.lp_gap, "slack_added": cert.slack_added,
            "verified": cert.verified,
            "coefficients": {",".join(str(i + 1) for i in subset) or "const":
                             str(v) for subset, v in cert.coefficients.items()}}


def _cmd_fool_lp(args) -> int:
    p = load_poly(args.poly)
    rep = fooling.worst_case_lp(p, args.k)
    payload = {
        "n": rep.n, "k": rep.k,
        "uniform_expectation": rep.uniform_expectation,
        "lp_max": rep.lp_max, "lp_min": rep.lp_min,
        "deviation": rep.deviation,
        "indicator_deviation": rep.indicator_deviation,
        "witness_repair_failed": rep.witness_repair_failed,
        "certificate_upper": _certificate_payload(rep.certificate_upper),
        "certificate_lower": _certificate_payload(rep.certificate_lower),
        "lp": rep.lp,
    }
    ok = (rep.certificate_upper.verified and rep.certificate_lower.verified
          and rep.check_order_invariant())
    if rep.witness_repair_failed:
        payload["inconclusive_reason"] = (
            f"exact witness repair gave up: {rep.witness_repair_reason}")
    if args.emit_witness and rep.witness_max is not None:
        spaces.dump_sample_space(rep.witness_max, args.emit_witness)
        payload["witness_file"] = args.emit_witness
        payload["witness_verified"] = rep.witness_max_check.passed
    if args.emit_cert:
        cert_body = {"upper": payload["certificate_upper"],
                     "lower": payload["certificate_lower"]}
        _write(json.dumps(_plain(cert_body), indent=1, sort_keys=True) + "\n", args.emit_cert)
        payload["certificate_file"] = args.emit_cert
    _emit(payload, args.report, args)
    if not ok:
        return 1
    return 2 if rep.witness_repair_failed else 0


def _cmd_fool_sweep(args) -> int:
    if args.kmax < 1:
        raise ConfigurationError(f"--kmax must be at least 1, got {args.kmax}")
    p = load_poly(args.poly)
    reps = fooling.lp_sweep(p, range(1, args.kmax + 1))
    lines = ["k,lp_max,lp_min,uniform,deviation"]
    for r in reps:
        lines.append(f"{r.k},{r.lp_max + 0.0!r},{r.lp_min + 0.0!r},"
                     f"{float(r.uniform_expectation) + 0.0!r},{r.deviation + 0.0!r}")
    _write("\n".join(lines) + "\n", args.csv)
    return 0


def _cmd_tree_build(args) -> int:
    p = load_poly(args.poly)
    t = tree.build_tree(p, args.tau, max_depth=args.max_depth)
    tree.dump_tree(t, args.out)
    rep = tree.tree_report(t, p)
    masses = {k: str(v) for k, v in rep.mass_by_class.items()}
    print(f"wrote {args.out}: depth {rep.depth}, {rep.leaf_count} leaves, "
          f"masses {masses}, composition "
          f"{'ok' if rep.composition_check.passed else 'BROKEN'}")
    return 0 if rep.composition_check.passed else 1


def _cmd_gw_round(args) -> int:
    graph = gw.load_graph(args.graph)
    emb = gw.load_embedding(args.embedding)
    if args.k is None and args.eps is None:
        raise ConfigurationError("need --k or --eps")
    k = args.k if args.k is not None else gw.k_for_eps(args.eps)
    gspace = spaces.build_kwise_gaussian(emb.dim, k,
                                         resolution=args.resolution)
    seed = _rng_seed(args.seed, f"gw:{args.graph}:{k}")
    rep = gw.round_with_space(graph, emb, gspace, trials=args.trials,
                              seed=seed)
    lines = ["mean_cut,ci,diff_vs_exact,exact_cut,k,trials,mode,seed",
             f"{rep.mean_cut!r},{rep.ci!r},{rep.diff_vs_exact!r},"
             f"{rep.exact_cut!r},{k},{rep.trials},{rep.mode},{rep.seed}"]
    _write("\n".join(lines) + "\n", args.csv)
    return 0


# --------------------------------------------------------------------------
# the aggregate suite


def _suite_checks(quick: bool):
    """Fast end-to-end exercise of each capability; names say what passes."""

    def kwise():
        sp = spaces.build_kwise_bernoulli(8, 2)
        yield "8 variables, pairwise exact", spaces.verify_kwise_exact(sp).passed
        if not quick:
            sp3 = spaces.build_kwise_bernoulli(8, 3)
            yield "8 variables, 3-wise exact", spaces.verify_kwise_exact(sp3).passed

    def polyc():
        from .poly import eigendecompose_symmetric
        dec = eigendecompose_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        yield "exchange matrix eigenvalues", bool(
            np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12))
        p = DegTwoPoly(3, quad=np.diag([1.0, -0.3, 0.05]))
        inv = spectral_decompose(p, 0.1).invariant_report(p.quad)
        yield "spectral split invariants", all(bool(v) for v in inv.values())

    def momentsc():
        rng = np.random.default_rng(7)
        A = rng.normal(size=(8, 8))
        A = 0.5 * (A + A.T)
        np.fill_diagonal(A, 0.0)
        rep = moments.eigenbound_ratio(A, 2, strict=False)
        target = 4.0 * sum(A[i, j] ** 2 for i in range(8) for j in range(i + 1, 8))
        yield "second moment identity", abs(rep.value - target) <= 1e-12 * abs(target)
        yield "second moment under spectral bound", rep.passed

    def ftmolc():
        yield "unit kernel mass d=1", mollify.check_unit_integral(1).passed
        if not quick:
            yield "unit kernel mass d=2", mollify.check_unit_integral(2).passed

    def foolc():
        p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
        r1 = fooling.worst_case_lp(p, 1, emit_witness=False)
        r2 = fooling.worst_case_lp(p, 2, emit_witness=False)
        yield "pairwise product fooled only at k=2", (
            abs(r1.deviation - 1.0) <= 1e-9 and abs(r2.deviation) <= 1e-9)
        yield "certificates verified", (
            r1.certificate_upper.verified and r2.certificate_upper.verified)

    def treec():
        p = DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})
        t = tree.build_tree(p, 0.4)
        rep = tree.tree_report(t, p)
        yield "product tree mass accounting", (
            rep.mass_by_class[tree.CLOSE_TO_CONSTANT] == 1 and rep.depth == 2)
        yield "product tree leaves are exact restrictions", rep.composition_check.passed
        q = DegTwoPoly.from_terms(
            5, 2.0 ** 53, {0: 1.0, 1: -1.0, 2: 2.0 ** 53, 3: -1.0, 4: -1.0},
            {(0, 2): 2.0 ** 53, (0, 3): 1.0, (0, 4): 2.0 ** 54,
             (1, 2): 2.0 ** 54, (2, 3): -1.0, (3, 4): 2.0 ** 53})
        rep = tree.tree_report(tree.build_tree(q, 0.2), q)
        yield "2^54-scale tree: exact disagreement mass 1/32", (
            rep.deviation.close_disagreement_mass == Fraction(1, 32)
            and rep.composition_check.passed)

    def gwc():
        g = gw.single_edge()
        anti = gw.generate_test_embedding(g, "antipodal")
        yield "antipodal expected cut", gw.expected_cut_exact(g, anti) == 1.0
        c5 = gw.cycle_graph(5)
        e5 = gw.generate_test_embedding(c5, "cycle_optimal")
        yield "pentagon expected cut", abs(
            gw.expected_cut_exact(c5, e5) - 4.0) <= 1e-9

    for group in (kwise, polyc, momentsc, ftmolc, foolc, treec, gwc):
        for name, ok in group():
            yield f"{group.__name__.rstrip('c')}: {name}", ok


def _cmd_suite(args) -> int:
    statuses = []
    for name, ok in _suite_checks(args.quick):
        statuses.append((name, "pass" if ok else "fail"))
    code = _statuses_to_exit(statuses)
    total = len(statuses)
    passed = sum(1 for _, st in statuses if st == "pass")
    print(f"{passed}/{total} checks passed")
    return code


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse with the schema-violation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _add_common(sp) -> None:
    sp.add_argument("--seed", type=int, default=0,
                    help="master seed; per-task seeds are spawned from it")
    sp.add_argument("--report", default=None,
                    help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ptf-fool",
        description="Exact workbench for bounded-independence fooling of "
                    "degree-2 threshold functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    kwise = sub.add_parser("kwise", help="build and verify sample spaces")
    ksub = kwise.add_subparsers(dest="subcommand", required=True)
    kb = ksub.add_parser("build", help="construct a k-wise independent space")
    kb.add_argument("--n", type=int, required=True)
    kb.add_argument("--k", type=int, required=True)
    kb.add_argument("--method", default="vandermonde_bit",
                    choices=("vandermonde_bit", "bch_parity"))
    kb.add_argument("--out", required=True)
    kb.set_defaults(func=_cmd_kwise_build)
    kv = ksub.add_parser("verify", help="exactly verify parity balance")
    kv.add_argument("--space", required=True)
    kv.add_argument("--k", type=int, default=None,
                    help="order to verify (default: the claimed one)")
    kv.set_defaults(func=_cmd_kwise_verify)

    poly = sub.add_parser("poly", help="inspect and decompose polynomials")
    psub = poly.add_subparsers(dest="subcommand", required=True)
    pi = psub.add_parser("info", help="influences, regularity, critical index")
    pi.add_argument("--poly", required=True)
    pi.add_argument("--tau", type=float, default=0.1)
    _add_common(pi)
    pi.set_defaults(func=_cmd_poly_info)
    pd = psub.add_parser("decompose", help="three-band spectral split")
    pd.add_argument("--poly", required=True)
    pd.add_argument("--delta", type=float, required=True)
    pd.add_argument("--out", default=None)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=_cmd_poly_decompose)

    mo = sub.add_parser("moments", help="hypercube moments against bounds")
    mo.add_argument("--poly", required=True)
    mo.add_argument("--k", type=int, required=True)
    mo.add_argument("--mode", choices=("exact", "mc"), default="exact")
    mo.add_argument("--center", choices=("trace", "none"), default="none")
    mo.add_argument("--samples", type=int, default=200_000)
    _add_common(mo)
    mo.set_defaults(func=_cmd_moments)

    ft = sub.add_parser("ftmol", help="mollifier checks")
    fsub = ft.add_subparsers(dest="subcommand", required=True)
    fc = fsub.add_parser("check", help="run one mollifier check suite")
    fc.add_argument("--d", type=int, required=True)
    fc.add_argument("--c", type=float, default=1.0)
    fc.add_argument("--suite", required=True,
                    choices=("unit", "l1", "tail", "moment", "mollify"))
    _add_common(fc)
    fc.set_defaults(func=_cmd_ftmol)

    fool = sub.add_parser("fool", help="fooling deviations, LPs, certificates")
    osub = fool.add_subparsers(dest="subcommand", required=True)
    fe = osub.add_parser("exact", help="exact deviation under a stored space")
    fe.add_argument("--poly", required=True)
    fe.add_argument("--space", required=True)
    _add_common(fe)
    fe.set_defaults(func=_cmd_fool_exact)
    fl = osub.add_parser("lp", help="worst case over all k-wise distributions")
    fl.add_argument("--poly", required=True)
    fl.add_argument("--k", type=int, required=True)
    fl.add_argument("--emit-witness", default=None, metavar="FILE",
                    help="write the maximizing distribution as a space file")
    fl.add_argument("--emit-cert", default=None, metavar="FILE",
                    help="write both dual certificates as JSON")
    _add_common(fl)
    fl.set_defaults(func=_cmd_fool_lp)
    fs = osub.add_parser("sweep", help="LP deviation for k = 1..kmax")
    fs.add_argument("--poly", required=True)
    fs.add_argument("--kmax", type=int, required=True)
    fs.add_argument("--csv", default=None)
    fs.set_defaults(func=_cmd_fool_sweep)

    tr = sub.add_parser("tree", help="restriction trees")
    tsub = tr.add_subparsers(dest="subcommand", required=True)
    tb = tsub.add_parser("build", help="grow and store a restriction tree")
    tb.add_argument("--poly", required=True)
    tb.add_argument("--tau", type=float, required=True)
    tb.add_argument("--max-depth", type=int, default=None)
    tb.add_argument("--out", required=True)
    tb.set_defaults(func=_cmd_tree_build)

    gwp = sub.add_parser("gw", help="hyperplane rounding experiments")
    gsub = gwp.add_subparsers(dest="subcommand", required=True)
    gr = gsub.add_parser("round", help="round an embedding with a k-wise space")
    gr.add_argument("--graph", required=True)
    gr.add_argument("--embedding", required=True)
    gr.add_argument("--k", type=int, default=None)
    gr.add_argument("--eps", type=float, default=None,
                    help="target accuracy; used when --k is absent")
    gr.add_argument("--trials", type=int, default=None,
                    help="Monte Carlo trials (default: exact seed sweep)")
    gr.add_argument("--resolution", type=int, default=None,
                    help="quantile levels for the Gaussian space")
    gr.add_argument("--csv", default=None)
    gr.add_argument("--seed", type=int, default=0)
    gr.set_defaults(func=_cmd_gw_round)

    su = sub.add_parser("suite", help="fast aggregate acceptance subsets")
    su.add_argument("scope", choices=("all",))
    su.add_argument("--quick", action="store_true")
    su.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        return args.func(args)
    except (ConfigurationError, FormatError, InvalidOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except OSError as exc:
        # a missing input, a directory where a file belongs, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except (InconclusiveError, ResourceBudgetError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except PtfFoolError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
