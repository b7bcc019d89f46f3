import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_poly
from gw_files import dump_embedding, dump_graph
from ptffool import config, fooling, gw, spaces, tree
from ptffool.cli import main
from ptffool.poly import DegTwoPoly, dump_poly


@pytest.fixture
def product_poly_file(tmp_path):
    path = tmp_path / "prod.poly"
    dump_poly(DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0}), path)
    return str(path)


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_kwise_build_then_verify(tmp_path):
    out = str(tmp_path / "s.space")
    assert main(["kwise", "build", "--n", "8", "--k", "2", "--out", out]) == 0
    assert main(["kwise", "verify", "--space", out]) == 0
    assert main(["kwise", "verify", "--space", out, "--k", "2"]) == 0


def test_poly_info_report_envelope(tmp_path, product_poly_file):
    rep_path = str(tmp_path / "r.json")
    assert main(["poly", "info", "--poly", product_poly_file,
                 "--tau", "0.3", "--report", rep_path]) == 0
    rep = _read_report(rep_path)
    for key in ("config", "config_hash", "version", "master_seed", "timestamp"):
        assert key in rep
    assert rep["n"] == 2
    assert rep["max_ratio"] == 0.5
    assert rep["is_regular"] is False
    assert len(rep["config_hash"]) == 64


def test_poly_decompose(tmp_path, product_poly_file):
    out = str(tmp_path / "d.json")
    assert main(["poly", "decompose", "--poly", product_poly_file,
                 "--delta", "0.25", "--out", out]) == 0
    rep = _read_report(out)
    assert all(rep["invariants"].values())


def test_moments_exact_report(tmp_path, product_poly_file):
    rep_path = str(tmp_path / "m.json")
    assert main(["moments", "--poly", product_poly_file, "--k", "2",
                 "--report", rep_path]) == 0
    rep = _read_report(rep_path)
    assert rep["value"] == 1.0
    assert rep["mode"] == "exact"


def test_moments_mc_seeded(tmp_path, product_poly_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert main(["moments", "--poly", product_poly_file, "--k", "2",
                     "--mode", "mc", "--samples", "20000",
                     "--report", path]) == 0
    ra, rb = _read_report(a), _read_report(b)
    assert ra["value"] == rb["value"]
    assert ra["seed"] == rb["seed"]


def test_ftmol_check_unit(capsys):
    assert main(["ftmol", "check", "--d", "1", "--suite", "unit"]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["checks"][0]["status"] == "pass"


def test_fool_exact(tmp_path, product_poly_file):
    space_path = str(tmp_path / "s.space")
    sp = spaces.SampleSpace(n=2, k_claimed=2,
                            points=np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]],
                                            dtype=np.int8),
                            method="explicit")
    spaces.dump_sample_space(sp, space_path)
    rep_path = str(tmp_path / "r.json")
    assert main(["fool", "exact", "--poly", product_poly_file,
                 "--space", space_path, "--report", rep_path]) == 0
    assert _read_report(rep_path)["deviation"] == 0.0


def test_fool_lp_with_emissions(tmp_path, product_poly_file):
    rep_path = str(tmp_path / "r.json")
    wit = str(tmp_path / "w.space")
    cert = str(tmp_path / "c.json")
    assert main(["fool", "lp", "--poly", product_poly_file, "--k", "1",
                 "--emit-witness", wit, "--emit-cert", cert,
                 "--report", rep_path]) == 0
    rep = _read_report(rep_path)
    assert rep["deviation"] == 1.0
    assert rep["witness_verified"] is True
    # witness file loads back as a valid one-wise space
    back = spaces.load_sample_space(wit)
    assert back.n == 2
    certs = _read_report(cert)
    assert certs["upper"]["verified"] and certs["lower"]["verified"]


def test_fool_lp_k0_witness_is_vacuously_verified(tmp_path, product_poly_file):
    """Order 0 constrains no parity, so the emitted witness passes its check."""
    rep_path, wit = str(tmp_path / "r.json"), str(tmp_path / "w.space")
    assert main(["fool", "lp", "--poly", product_poly_file, "--k", "0",
                 "--emit-witness", wit, "--report", rep_path]) == 0
    rep = _read_report(rep_path)
    assert rep["witness_verified"] is True and rep["witness_file"] == wit


def test_fool_lp_k2_collapses(tmp_path, product_poly_file):
    rep_path = str(tmp_path / "r.json")
    assert main(["fool", "lp", "--poly", product_poly_file, "--k", "2",
                 "--report", rep_path]) == 0
    assert abs(_read_report(rep_path)["deviation"]) <= 1e-9


def test_fool_sweep_csv(tmp_path, product_poly_file):
    csv_path = str(tmp_path / "s.csv")
    assert main(["fool", "sweep", "--poly", product_poly_file,
                 "--kmax", "2", "--csv", csv_path]) == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "k,lp_max,lp_min,uniform,deviation"
    assert lines[1].startswith("1,1.0,-1.0,0.0,1.0")
    assert lines[2].startswith("2,0.0,0.0,0.0,0.0")


def test_tree_build(tmp_path, product_poly_file):
    out = str(tmp_path / "t.json")
    assert main(["tree", "build", "--poly", product_poly_file,
                 "--tau", "0.4", "--out", out]) == 0
    doc = _read_report(out)
    assert "var" in doc


def test_tree_build_keeps_exact_leaves_on_a_2_54_scale(tmp_path, capsys):
    # float restriction stored disagreement 0 on two leaves whose exact
    # disagreement is 1/4; exact restriction gives 1/32 in all
    path = tmp_path / "big.poly"
    path.write_text("5\nC 9007199254740992\nL 1 1\nL 2 -1\n"
                    "L 3 9007199254740992\nL 4 -1\nL 5 -1\n"
                    "Q 1 3 9007199254740992\nQ 1 4 1\nQ 1 5 18014398509481984\n"
                    "Q 2 3 18014398509481984\nQ 3 4 -1\nQ 4 5 9007199254740992\n")
    out = tmp_path / "t.json"
    assert main(["tree", "build", "--poly", str(path), "--tau", "0.2",
                 "--out", str(out)]) == 0
    assert "composition ok" in capsys.readouterr().out
    t = tree.load_tree(out)
    assert tree.tree_report(t).deviation.close_disagreement_mass == Fraction(1, 32)


@pytest.mark.parametrize("argv,n", [
    (["fool", "lp", "--k", "2"], config.LP_MAX_N + 1),
    (["tree", "build", "--tau", "0.2", "--out", "t.json"], config.ENUM_MAX_N + 1),
])
def test_resource_budget_is_inconclusive(tmp_path, capsys, argv, n, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dump_poly(DegTwoPoly.from_terms(n, linear={0: 1.0}), tmp_path / "p.poly")
    assert main(argv + ["--poly", "p.poly"]) == 2
    assert "inconclusive" in capsys.readouterr().err


def test_gw_round_exact(tmp_path):
    g = gw.single_edge()
    emb = gw.generate_test_embedding(g, "antipodal")
    gpath, epath = str(tmp_path / "g.graph"), str(tmp_path / "e.emb")
    dump_graph(g, gpath)
    dump_embedding(emb, epath)
    csv_path = str(tmp_path / "out.csv")
    assert main(["gw", "round", "--graph", gpath, "--embedding", epath,
                 "--k", "2", "--resolution", "256", "--csv", csv_path]) == 0
    lines = open(csv_path).read().splitlines()
    assert lines[1].split(",")[0] == "1.0"


def test_suite_quick():
    assert main(["suite", "all", "--quick"]) == 0


def test_replay_is_byte_identical_modulo_timestamp(tmp_path, product_poly_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["poly", "info", "--poly", product_poly_file, "--tau", "0.2"]
    assert main(argv + ["--report", a]) == 0
    assert main(argv + ["--report", b]) == 0
    la = [l for l in open(a).read().splitlines() if '"timestamp"' not in l]
    lb = [l for l in open(b).read().splitlines() if '"timestamp"' not in l]
    assert la == lb


def test_schema_violations_exit_64(tmp_path, product_poly_file):
    assert main(["fool", "lp", "--poly", product_poly_file]) == 64  # no --k
    assert main(["no-such-command"]) == 64
    assert main(["poly", "info", "--poly", str(tmp_path / "missing.poly")]) == 64
    bad = tmp_path / "bad.poly"
    bad.write_text("garbage\n")
    assert main(["poly", "info", "--poly", str(bad)]) == 64


def test_failed_check_exits_1(tmp_path):
    # claim order 5 for a space that is only 4-wise: verify must fail
    sp = spaces.build_kwise_bernoulli(16, 4, method="bch_parity")
    path = str(tmp_path / "s.space")
    spaces.dump_sample_space(sp, path)
    assert main(["kwise", "verify", "--space", path, "--k", "5"]) == 1


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "ptffool.cli",
                           "suite", "all", "--quick"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


GOOD_SPACE = "2 1 2 weighted:0\n1 1\n-1 -1\n"


@pytest.mark.parametrize("label,text", [
    ("row after num_points", GOOD_SPACE + "1 -1\n"),
    ("row missing", "2 1 3 weighted:0\n1 1\n-1 -1\n"),
    ("blank row", "2 1 2 weighted:0\n1 1\n\n"),
    ("short row", "2 1 2 weighted:0\n1\n-1 -1\n"),
    ("long row", "2 1 2 weighted:0\n1 1 1\n-1 -1\n"),
    ("coordinate 2", "2 1 2 weighted:0\n1 2\n-1 -1\n"),
    ("coordinate 0", "2 1 2 weighted:0\n1 0\n-1 -1\n"),
    ("non-integer coordinate", "2 1 2 weighted:0\n1 1.0\n-1 -1\n"),
    ("word coordinate", "2 1 2 weighted:0\nx 1\n-1 -1\n"),
    ("bad weight literal", "2 1 2 weighted:1\n1 1 x/2\n-1 -1 1/2\n"),
    ("zero weight denominator", "2 1 2 weighted:1\n1 1 1/0\n-1 -1 1/2\n"),
    ("weight missing", "2 1 2 weighted:1\n1 1\n-1 -1 1/2\n"),
    ("weights not summing to 1", "2 1 2 weighted:1\n1 1 1/2\n-1 -1 1/3\n"),
    ("negative weight", "2 1 2 weighted:1\n1 1 3/2\n-1 -1 -1/2\n"),
    ("non-integer header", "2 one 2 weighted:0\n1 1\n-1 -1\n"),
    ("header without weighted flag", "2 1 2\n1 1\n-1 -1\n"),
    ("bad weighted flag", "2 1 2 weighted:2\n1 1\n-1 -1\n"),
    ("no points", "2 1 0 weighted:0\n"),
    ("empty file", ""),
    ("not ascii", "2 1 2 weighted:0\n1 1\n-1 −1\n"),
])
def test_malformed_space_files_exit_64(tmp_path, label, text):
    path = tmp_path / "bad.space"
    path.write_bytes(text.encode("utf-8"))
    assert main(["kwise", "verify", "--space", str(path)]) == 64, label


GOOD_POLY = "2\nC 0.5\nL 1 1.0\nQ 1 2 -1.0\n"


@pytest.mark.parametrize("label,text,message", [
    ("empty file", "", "empty polynomial text"),
    ("negative dimension", "-1\n", "first line must be the dimension n >= 0"),
    ("word dimension", "two\nC 1\n", "first line must be the dimension n >= 0"),
    ("two fields on the first line", "2 3\nC 1\n", "first line must be the dimension n >= 0"),
    ("repeated C", GOOD_POLY + "C 2\n", "line 5: repeated C record"),
    ("repeated L", "2\nL 1 1\nL 1 5\n", "line 3: repeated L 1 record"),
    ("repeated Q", "2\nQ 1 2 1\nC 0\nQ 1 2 1\n", "line 4: repeated Q 1 2 record"),
    ("L index out of range", "2\nL 3 1\n", "line 2: index out of range"),
    ("L index zero", "2\nL 0 1\n", "line 2: index out of range"),
    ("Q below the diagonal", "2\nQ 2 1 1\n", "line 2: need 1 <= i <= j <= n"),
    ("word index", "2\nQ 1 x 1\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("word coefficient", "2\nC one\n", "line 2: could not convert string to float: 'one'"),
    ("unknown tag", "2\nK 1\n", "line 2: unrecognized record"),
    ("short record", "2\nL 1\n", "line 2: unrecognized record"),
    ("long record", "2\nC 1 2\n", "line 2: unrecognized record"),
])
def test_malformed_poly_files_exit_64(tmp_path, capsys, label, text, message):
    path = tmp_path / "bad.poly"
    path.write_text(text)
    assert main(["poly", "info", "--poly", str(path)]) == 64, label
    assert capsys.readouterr().err == f"error: {message}\n", label


def test_non_ascii_poly_file_exits_64(tmp_path):
    path = tmp_path / "bad.poly"
    path.write_bytes("2\nC \u22121\n".encode("utf-8"))
    assert main(["poly", "info", "--poly", str(path)]) == 64
    path.write_text(GOOD_POLY)
    assert main(["poly", "info", "--poly", str(path)]) == 0


def test_good_space_file_verifies(tmp_path):
    path = tmp_path / "good.space"
    path.write_text(GOOD_SPACE)
    assert main(["kwise", "verify", "--space", str(path)]) == 0


def test_fool_lp_repair_give_up_is_inconclusive(tmp_path, monkeypatch,
                                                product_poly_file):
    """When exact witness repair gives up, the certificates and the report
    are still written and the verdict is inconclusive (exit 2)."""
    monkeypatch.setattr(config, "WITNESS_REPAIR_MAX_SUPPORT", 1)
    rep_path, wit, cert = (str(tmp_path / name) for name in ("r.json", "w.space", "c.json"))
    assert main(["fool", "lp", "--poly", product_poly_file, "--k", "1",
                 "--emit-witness", wit, "--emit-cert", cert,
                 "--report", rep_path]) == 2
    rep = _read_report(rep_path)
    assert rep["witness_repair_failed"] is True
    assert "witness repair" in rep["inconclusive_reason"]
    assert "witness_file" not in rep and not (tmp_path / "w.space").exists()
    certs = _read_report(cert)
    assert certs["upper"]["verified"] and certs["lower"]["verified"]
    assert main(["fool", "lp", "--poly", product_poly_file, "--k", "1"]) == 2


def _wrap_solver(monkeypatch, mutate):
    solve = fooling._solve_exact
    monkeypatch.setattr(fooling, "_solve_exact", lambda *a: mutate(*solve(*a)))


def _negate_first(num, den):
    num = num.copy()
    num[0] = -num[0] - 1
    return num, den


def _off_by_one(num, den):
    num = num.copy()
    num[0] += 1
    return num, den


@pytest.mark.parametrize("patch, reason", [
    (lambda mp: mp.setattr(config, "WITNESS_REPAIR_MAX_SUPPORT", 1),
     r"LP support of \d+ points is above the repair cap of 1"),
    (lambda mp: mp.setattr(fooling, "lu_solve", lambda f, r, **kw: np.zeros(r.shape)),
     "iterative refinement did not converge"),
    (lambda mp: _wrap_solver(mp, _negate_first), "a reconstructed weight is negative"),
    (lambda mp: _wrap_solver(mp, _off_by_one), "the exact parity check failed"),
])
def test_fool_lp_inconclusive_reason_names_the_cause(tmp_path, monkeypatch,
                                                     product_poly_file, patch, reason):
    patch(monkeypatch)
    rep_path = str(tmp_path / "r.json")
    assert main(["fool", "lp", "--poly", product_poly_file, "--k", "1",
                 "--report", rep_path]) == 2
    why = _read_report(rep_path)["inconclusive_reason"]
    assert why.startswith("exact witness repair gave up: max side: ")
    assert re.search(reason, why) and "min side: " in why


def _fool_lp_witness_at(tmp_path, n, k, p):
    poly_path, rep_path, wit = (str(tmp_path / name) for name in ("p.poly", "r.json", "w.space"))
    dump_poly(p, poly_path)
    assert main(["fool", "lp", "--poly", poly_path, "--k", str(k),
                 "--emit-witness", wit, "--report", rep_path]) == 0
    rep = _read_report(rep_path)
    assert rep["witness_verified"] is True and not rep["witness_repair_failed"]
    back = spaces.load_sample_space(wit)
    assert back.n == n and spaces.verify_kwise_exact(back, k).passed
    return back


def test_fool_lp_repairs_a_full_support_witness_at_n9_k5(tmp_path):
    """Support 382, every parity row of order <= 5 at n = 9."""
    back = _fool_lp_witness_at(tmp_path, 9, 5, random_poly(9, np.random.default_rng(9)))
    assert back.num_points == 382


N10_POLY = DegTwoPoly.from_terms(10, constant=0.25, linear={i: 1.0 for i in range(10)},
                                 quad_terms={(0, 1): 2.0, (2, 3): -1.0})


def test_fool_lp_repairs_witness_at_n10_k5(tmp_path):
    """The transform form at n = 10: a support of 540 points on the max side
    and 454 on the min side (the point-mass form's min-side vertex has 422)."""
    back = _fool_lp_witness_at(tmp_path, 10, 5, N10_POLY)
    assert back.num_points > 512


@pytest.mark.parametrize("name, text", [
    ("g.graph", "1 2 \u22121\n"),                      # U+2212 minus sign
    ("e.emb", "1 2 1.0 0.0\n2 2 \u22121.0 0.0\n"),
])
def test_non_ascii_gw_files_exit_64(tmp_path, name, text):
    g = gw.single_edge()
    dump_graph(g, tmp_path / "g.graph")
    dump_embedding(gw.generate_test_embedding(g, "antipodal"), tmp_path / "e.emb")
    argv = ["gw", "round", "--graph", str(tmp_path / "g.graph"),
            "--embedding", str(tmp_path / "e.emb"), "--k", "2", "--resolution", "256"]
    assert main(argv) == 0
    (tmp_path / name).write_bytes(text.encode("utf-8"))
    assert main(argv) == 64


def test_report_version_from_source_checkout(tmp_path, product_poly_file):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    rep_path = str(tmp_path / "r.json")
    proc = subprocess.run([sys.executable, "-m", "ptffool.cli", "poly", "info",
                           "--poly", product_poly_file, "--report", rep_path],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert _read_report(rep_path)["version"] == "ptffool-0.1.0"


@pytest.mark.parametrize("record", ["C nan", "L 1 inf", "Q 1 2 -inf"])
@pytest.mark.parametrize("command", [["poly", "info"], ["fool", "lp", "--k", "1"]])
def test_non_finite_coefficients_exit_64(tmp_path, record, command):
    path = tmp_path / "bad.poly"
    path.write_text(f"2\nQ 1 2 1.0\n{record}\n")
    assert main(command + ["--poly", str(path)]) == 64


def test_fool_lp_counts_exact_zeros(tmp_path):
    # -2^53 + 2^53 x1 + x2 + x3 vanishes at (1, 1, -1), where floats say -1
    poly_path, rep_path = tmp_path / "p.poly", str(tmp_path / "r.json")
    poly_path.write_text("3\nC -9007199254740992\nL 1 9007199254740992\n"
                         "L 2 1\nL 3 1\n")
    assert main(["fool", "lp", "--poly", str(poly_path), "--k", "1",
                 "--report", rep_path]) == 0
    assert _read_report(rep_path)["uniform_expectation"] == "-1/4"


def test_moments_value_exact_folds_the_diagonal_exactly(tmp_path):
    poly_path, rep_path = tmp_path / "p.poly", str(tmp_path / "r.json")
    poly_path.write_text("1\nC 9007199254740992\nQ 1 1 1\n")
    assert main(["moments", "--poly", str(poly_path), "--k", "2",
                 "--report", rep_path]) == 0
    assert _read_report(rep_path)["value_exact"] == str((2 ** 53 + 1) ** 2)


def test_embedding_with_a_huge_vertex_id_fails_fast(tmp_path, capsys):
    dump_graph(gw.single_edge(), tmp_path / "g.graph")
    (tmp_path / "e.emb").write_text("1 2 1.0 0.0\n10000000 2 -1.0 0.0\n")
    start = time.perf_counter()
    assert main(["gw", "round", "--graph", str(tmp_path / "g.graph"),
                 "--embedding", str(tmp_path / "e.emb"), "--k", "2"]) == 64
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "vertex 2 is missing" in err and len(err) < 1024


@pytest.mark.parametrize("argv", [
    ["poly", "info", "--poly", "p.poly", "--tau", "nan"],
    ["poly", "info", "--poly", "p.poly", "--tau", "inf"],
    ["poly", "info", "--poly", "p.poly", "--tau", "-1"],
    ["poly", "decompose", "--poly", "p.poly", "--delta", "nan", "--out", "r.json"],
    ["poly", "decompose", "--poly", "p.poly", "--delta", "inf", "--out", "r.json"],
    ["tree", "build", "--poly", "p.poly", "--tau", "nan", "--out", "r.json"],
    ["ftmol", "check", "--d", "1", "--c", "nan", "--suite", "unit"],
    ["ftmol", "check", "--d", "1", "--c", "inf", "--suite", "unit"],
    ["ftmol", "check", "--d", "2", "--c", "nan", "--suite", "mollify"],
    ["ftmol", "check", "--d", "1", "--c", "inf", "--suite", "mollify"],
    ["ftmol", "check", "--d", "2", "--c", "nan", "--suite", "l1"],
    ["ftmol", "check", "--d", "1", "--c", "inf", "--suite", "tail"],
    ["ftmol", "check", "--d", "1", "--c=-1", "--suite", "moment"],
    ["ftmol", "check", "--d", "1", "--c", "0", "--suite", "unit"],
    ["ftmol", "check", "--d", "1", "--c=-inf", "--suite", "mollify"],
    ["gw", "round", "--graph", "g.graph", "--embedding", "e.emb", "--eps", "nan"],
    ["kwise", "verify", "--space", "s.space", "--k", "-1"],
], ids=" ".join)
def test_bad_numbers_exit_64(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    dump_poly(DegTwoPoly.from_terms(2, quad_terms={(0, 1): 1.0}), "p.poly")
    spaces.dump_sample_space(spaces.build_kwise_bernoulli(6, 2), "s.space")
    g = gw.single_edge()
    dump_graph(g, "g.graph")
    dump_embedding(gw.generate_test_embedding(g, "antipodal"), "e.emb")
    assert main(argv) == 64
    assert not (tmp_path / "r.json").exists()


_COLD_START = """
import json, sys
from ptffool import cli

def scipy_loaded():
    return sorted(m for m in ("scipy", "scipy.special", "scipy.optimize")
                  if m in sys.modules)

poly, space, tree_out = sys.argv[1:]
seen = {"import": scipy_loaded()}
codes = [cli.main(argv) for argv in (
    ["poly", "info", "--poly", poly],
    ["moments", "--poly", poly, "--k", "4", "--mode", "exact"],
    ["kwise", "build", "--n", "6", "--k", "2", "--out", space],
    ["kwise", "verify", "--space", space],
    ["tree", "build", "--poly", poly, "--tau", "0.2", "--out", tree_out])]
seen["no_lp"] = scipy_loaded()
codes.append(cli.main(["ftmol", "check", "--d", "1", "--suite", "unit"]))
seen["ftmol"] = scipy_loaded()
codes.append(cli.main(["fool", "lp", "--poly", poly, "--k", "1"]))
seen["lp"] = scipy_loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_scipy_loads_only_where_it_is_called(tmp_path, product_poly_file):
    """Cold start: importing the CLI and running the commands that solve no
    LP load no scipy; mollifier checks load scipy.special, and the first LP
    scipy.optimize."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _COLD_START, product_poly_file,
                           str(tmp_path / "s.space"), str(tmp_path / "t.json")],
                          capture_output=True, text=True, cwd=str(tmp_path),
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0] * 7
    assert out["seen"] == {
        "import": [], "no_lp": [],
        "ftmol": ["scipy", "scipy.special"],
        "lp": ["scipy", "scipy.optimize", "scipy.special"],
    }
