"""Top-level acceptance battery.

One test per numbered criterion, each ending in a single printed
PASS/FAIL line (visible with -rA or -s; pytest -v mirrors it in the
test outcome).  Tests compute everything first and assert once at the
end so the line always appears, with the failure detail attached.

Criterion 5 audits the certificates emitted while criteria 2 through 4
ran, so those tests stash their LP reports in a module-level list; when
criterion 5 runs standalone the list is repopulated from the cheap
hand-checkable instance.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import mollify_reference
from conftest import (random_poly, random_regular_poly,
                      random_tracefree_symmetric)
from ptffool import cli, fooling, gw, moments, mollify, spaces, tree
from ptffool.cube import all_points
from ptffool.poly import DegTwoPoly, dump_poly, spectral_decompose

_CERT_RUNS = []


def _line(num, label, failures, extra=""):
    ok = not failures
    msg = f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if extra:
        msg += f" [{extra}]"
    print(msg)
    assert ok, msg + " :: " + "; ".join(str(f) for f in failures[:8])


def product_poly():
    return DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0})


def test_criterion_01_kwise_exactness():
    failures, times = [], []
    for n, k in [(8, 2), (8, 3), (16, 4)]:
        t0 = time.monotonic()
        sp = spaces.build_kwise_bernoulli(n, k)
        rep = spaces.verify_kwise_exact(sp)
        dt = time.monotonic() - t0
        times.append(dt)
        if not rep.passed or rep.worst_bias != Fraction(0):
            failures.append((n, k, rep.worst_subset, rep.worst_bias))
        if dt >= 30.0:
            failures.append((n, k, f"{dt:.1f}s"))
    _line(1, "k-wise exactness", failures,
          "worst build+verify " + f"{max(times):.2f}s")


def test_criterion_02_full_independence_collapse():
    failures = []
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    for i in range(20):
        n = (4, 5, 6)[i % 3]
        p = random_poly(n, rng)
        rep = fooling.worst_case_lp(p, n, emit_witness=False)
        _CERT_RUNS.append((p, rep))
        if abs(rep.deviation) > 1e-7:
            failures.append((i, n, rep.deviation))
    total = time.monotonic() - t0
    if total >= 60.0:
        failures.append(f"runtime {total:.1f}s")
    _line(2, "full-independence collapse", failures, f"{total:.1f}s for 20")


@pytest.mark.slow
def test_criterion_03_lp_monotonicity():
    failures = []
    rng = np.random.default_rng(303)
    t0 = time.monotonic()
    for i in range(10):
        p = random_regular_poly(10, 0.2, rng)
        try:
            reps = fooling.lp_sweep(p, range(1, 7))
        except Exception as exc:
            failures.append((i, repr(exc)))
            continue
        _CERT_RUNS.extend((p, r) for r in reps)
        devs = [r.deviation for r in reps]
        for a, b in zip(devs, devs[1:]):
            if b > a + 1e-7:
                failures.append((i, devs))
                break
    total = time.monotonic() - t0
    if total >= 600.0:
        failures.append(f"runtime {total:.1f}s")
    _line(3, "LP monotonicity in k", failures, f"{total:.0f}s for 10 sweeps")


def test_criterion_04_hand_verifiable_lp():
    failures = []
    p = product_poly()
    r1 = fooling.worst_case_lp(p, 1)
    r2 = fooling.worst_case_lp(p, 2)
    _CERT_RUNS.extend([(p, r1), (p, r2)])
    if abs(r1.deviation - 1.0) > 1e-9:
        failures.append(("k=1", r1.deviation))
    if abs(r2.deviation) > 1e-9:
        failures.append(("k=2", r2.deviation))
    _line(4, "hand-checkable n=2 values", failures)


def _pointwise_recheck(p, cert):
    """Independent certificate audit in exact rationals on all 2^n
    points: upper certificates dominate sgn p, lower ones stay below."""
    coeffs = {s: Fraction(c) for s, c in cert.coefficients.items()}
    for x in all_points(p.n):
        q = sum((c * math.prod(int(x[i]) for i in s) for s, c in coeffs.items()),
                Fraction(0))
        s = 1 if p.evaluate(x) >= 0.0 else -1
        if cert.direction == "upper" and q < s:
            return False
        if cert.direction == "lower" and q > s:
            return False
    return True


def test_criterion_05_sandwich_soundness():
    if not _CERT_RUNS:
        p0 = product_poly()
        _CERT_RUNS.extend([(p0, fooling.worst_case_lp(p0, k))
                           for k in (1, 2)])
    failures, audited, rechecked = [], 0, 0
    for _, rep in _CERT_RUNS:
        for cert in (rep.certificate_upper, rep.certificate_lower):
            if cert is None:
                failures.append((rep.n, rep.k, "certificate missing"))
                continue
            audited += 1
            if not cert.verified:
                failures.append((rep.n, rep.k, cert.direction, "not verified"))
            if abs(float(cert.gap) - cert.lp_gap) > 1e-6:
                failures.append((rep.n, rep.k, cert.direction,
                                 float(cert.gap), cert.lp_gap))
    # spot audit with rational arithmetic, independent of the library's
    # own integer check, on every small instance
    for p, rep in _CERT_RUNS:
        if rep.n <= 5:
            for cert in (rep.certificate_upper, rep.certificate_lower):
                rechecked += 1
                if not _pointwise_recheck(p, cert):
                    failures.append((rep.n, rep.k, cert.direction,
                                     "pointwise recheck"))
    _line(5, "sandwich certificate soundness", failures,
          f"{audited} certificates, {rechecked} rationally re-audited")


def test_criterion_06_second_moment_identity():
    failures = []
    rng = np.random.default_rng(606)
    for i in range(100):
        n = int(rng.integers(3, 13))
        A = random_tracefree_symmetric(n, rng)
        p = DegTwoPoly(n=n, quad=A)
        got = moments.exact_moment_hypercube(p, 2).value
        want = 4.0 * float(sum(A[i_, j] ** 2
                               for i_ in range(n) for j in range(i_ + 1, n)))
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append((i, n, got, want))
    _line(6, "second moment identity", failures)


def test_criterion_07_eigenbound_constant():
    failures = []
    rng = np.random.default_rng(707)
    worst = 0.0
    t0 = time.monotonic()
    for i in range(100):
        n = int(rng.integers(3, 13))
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        for k in (2, 4, 6, 8):
            rep = moments.eigenbound_ratio(A, k, strict=False)
            worst = max(worst, rep.ratio)
            if rep.ratio > 128.0:
                failures.append((i, n, k, rep.ratio))
    total = time.monotonic() - t0
    if total >= 600.0:
        failures.append(f"runtime {total:.1f}s")
    _line(7, "eigenvalue moment bound constant", failures,
          f"observed max ratio {worst:.4f}, {total:.0f}s")


def test_criterion_08_khintchine():
    failures = []
    rng = np.random.default_rng(808)
    for i in range(50):
        n = int(rng.integers(2, 13))
        a = rng.normal(size=n)
        for k in (2, 4, 6, 8):
            rep = moments.khintchine_check(a, k)
            if not rep.passed or rep.value > rep.bound * (1 + 1e-12):
                failures.append((i, n, k, rep.value, rep.bound))
    _line(8, "Khintchine moment bound", failures)


def test_criterion_09_mollifier_suite():
    failures = []
    t0 = time.monotonic()
    for d in (1, 2):
        rep = mollify.check_unit_integral(d)
        if abs(rep.value - 1.0) > 1e-3:
            failures.append(("unit", d, rep.value))
        betas = ([(j,) for j in range(4)] if d == 1 else
                 [(a, b) for a in range(4) for b in range(4) if a + b <= 3])
        for beta in betas:
            drep = mollify.deriv_l1_norm(d, beta)
            if drep.inconclusive or drep.value > 2.0 ** sum(beta) + 1e-6:
                failures.append(("deriv", d, beta, drep.value))
        curve = mollify.tail_mass_curve(d, [2.0, 4.0, 8.0, 16.0, 32.0])
        vals = [r.value for r in curve]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append(("tail monotone", d, vals))
        # one-sided order fit: z^2 * mass stays bounded on the far tail
        scaled = [r.value * r.z ** 2 for r in curve[2:]]
        if max(scaled) > 10.0:
            failures.append(("tail 1/z^2 envelope", d, scaled))
        alphas = ([(0,), (2,), (4,)] if d == 1 else
                  [(0, 0), (2, 0), (0, 2), (2, 2)])
        for alpha in alphas:
            mrep = mollify.squared_bump_moment(d, alpha)
            if mrep.relative_gap > 1e-6:
                failures.append(("moment", d, alpha, mrep.relative_gap))
    # d=1 closed-form CDF against direct quadrature of the kernel
    for x in (-4.0, -1.0, 0.0, 0.5, 2.0, 6.0):
        closed = mollify.kernel_cdf_1d(x)
        body, _ = quad(lambda t: mollify_reference.kernel_value(1, np.array([t])),
                       -60.0, x, limit=400, epsabs=1e-12, epsrel=1e-12)
        tail, _ = quad(lambda t: mollify_reference.kernel_value(1, np.array([t])),
                       -2000.0, -60.0, limit=400)
        if abs(closed - (body + tail)) > 1e-8:
            failures.append(("cdf vs quadrature", x, closed, body + tail))
    # smoothed indicator at its boundary
    half = mollify.Mollifier(1, 1.0).mollify(mollify.HalfLine(0.0), [0.0])
    if abs(half - 0.5) > 1e-4:
        failures.append(("boundary", half))
    total = time.monotonic() - t0
    if total >= 300.0:
        failures.append(f"runtime {total:.1f}s")
    _line(9, "mollifier analytic suite", failures, f"{total:.0f}s")


def test_criterion_10_decomposition_invariants():
    failures = []
    rng = np.random.default_rng(1010)
    for i in range(100):
        n = int(rng.integers(2, 13))
        p = random_poly(n, rng)
        delta = float(rng.uniform(0.1, 2.0))
        rep = spectral_decompose(p, delta).invariant_report(p.quad)
        bad = [name for name, ok in rep.items() if not ok]
        if bad:
            failures.append((i, n, delta, bad))
    _line(10, "spectral split invariants", failures)


def test_criterion_11_gw_rounding():
    failures = []
    t0 = time.monotonic()
    edge = gw.single_edge()
    anti = gw.generate_test_embedding(edge, "antipodal")
    # exact seed sweeps over two quantile resolutions
    for q in (256, 1024):
        gs = spaces.build_kwise_gaussian(2, 2, resolution=q)
        rep = gw.round_with_space(edge, anti, gs)
        if rep.mean_cut != 1.0:
            failures.append(("antipodal inverse_cdf", q, rep.mean_cut))
    # binomial-sum space, odd column count so no marginal is ever zero
    gsb = spaces.build_kwise_gaussian(2, 2, method="binomial_sum",
                                      resolution=401)
    repb = gw.round_with_space(edge, anti, gsb, trials=20_000, seed=4)
    if repb.mean_cut != 1.0:
        failures.append(("antipodal binomial_sum", repb.mean_cut))

    c5 = gw.cycle_graph(5)
    opt = gw.generate_test_embedding(c5, "cycle_optimal")
    exact5 = gw.expected_cut_exact(c5, opt)
    if abs(exact5 - 4.0) > 1e-9:
        failures.append(("pentagon exact", exact5))

    k = math.ceil(4.0 / 0.05 ** 2)
    emb = gw.generate_test_embedding(c5, "random_unit", dim=3, seed=11)
    gsk = spaces.build_kwise_gaussian(3, k)
    rep = gw.round_with_space(c5, emb, gsk, trials=100_000, seed=5)
    allowance = 0.25 + rep.ci
    if abs(rep.diff_vs_exact) > allowance:
        failures.append(("k=1600 rounding", rep.mean_cut, rep.exact_cut,
                         allowance))
    total = time.monotonic() - t0
    if total >= 300.0:
        failures.append(f"runtime {total:.1f}s")
    _line(11, "hyperplane rounding", failures,
          f"k={k} gap {abs(rep.diff_vs_exact):.4f} <= {allowance:.4f}, "
          f"{total:.0f}s")


def _slice_space(sp, n):
    return spaces.SampleSpace(n=n, k_claimed=sp.k_claimed,
                              points=sp.points[:, :n], method=sp.method)


def test_criterion_12_tree_accounting():
    failures = []
    goldens = [
        (product_poly(), 0.4),
        (DegTwoPoly.from_terms(3, constant=3.0), 0.1),
        (DegTwoPoly.from_terms(3, constant=2.0,
                               linear={0: 1.0, 1: 1.0, 2: 1.0}), 0.2),
        (DegTwoPoly.from_terms(
            8, linear={i: (4.0 if i == 0 else 0.2) for i in range(8)},
            quad_terms={(1, 2): 0.1}), 0.3),
        (random_poly(5, np.random.default_rng(1212)), 0.25),
    ]
    for idx, (p, tau) in enumerate(goldens):
        t = tree.build_tree(p, tau)
        total = sum((leaf.mass for leaf in t.leaves()), Fraction(0))
        if total != Fraction(1):
            failures.append((idx, "mass sum", total))
        depth = max(t.depth(), 1)
        wide = spaces.build_kwise_bernoulli(max(p.n, 8), min(depth + 1, 8))
        rep = tree.tree_report(t, p, space=_slice_space(wide, p.n))
        if rep.space_check is None or rep.space_check.worst_gap != Fraction(0):
            failures.append((idx, "reach probability",
                             rep.space_check and rep.space_check.worst_gap))
        bad = rep.mass_by_class.get(tree.BAD, Fraction(0))
        if not t.truncated and float(bad) > tau + 1e-12:
            failures.append((idx, "bad mass", bad, tau))
    _line(12, "restriction tree accounting", failures,
          f"{len(goldens)} golden instances")


def test_criterion_13_replay_determinism(tmp_path):
    failures = []
    ppath = str(tmp_path / "p.poly")
    dump_poly(product_poly(), ppath)
    commands = [
        ["poly", "info", "--poly", ppath, "--tau", "0.3", "--seed", "9"],
        ["moments", "--poly", ppath, "--k", "4", "--mode", "mc",
         "--samples", "20000", "--seed", "9"],
        ["fool", "lp", "--poly", ppath, "--k", "1", "--seed", "9"],
        ["ftmol", "check", "--d", "1", "--suite", "unit", "--seed", "9"],
    ]
    for idx, argv in enumerate(commands):
        a = tmp_path / f"r{idx}a.json"
        b = tmp_path / f"r{idx}b.json"
        code_a = cli.main(argv + ["--report", str(a)])
        code_b = cli.main(argv + ["--report", str(b)])
        if code_a != code_b:
            failures.append((argv[0], "exit codes", code_a, code_b))
            continue
        la = [l for l in a.read_text().splitlines() if '"timestamp"' not in l]
        lb = [l for l in b.read_text().splitlines() if '"timestamp"' not in l]
        if la != lb:
            failures.append((argv[0], "bytes differ"))
        doc = json.loads(a.read_text())
        if doc["master_seed"] != 9 or "config_hash" not in doc:
            failures.append((argv[0], "envelope incomplete"))
    _line(13, "byte-identical replay", failures,
          f"{len(commands)} commands x 2 runs")
