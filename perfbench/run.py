"""ptf-fool benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload lp-witness --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15   # every workload in turn

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See README.md in this directory for the workloads.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One fixed thread setting for every run, at most the machine's 2 cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ["lp-witness", "lp-sweep", "spaces-gw", "moments-tree"]
SETUP_SAMPLES = 5            # own set-up plus four fresh processes; median
CHILD_TIMEOUT_S = 170


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print the set-up seconds, exit")
    return ap.parse_args(argv)


def _import_package():
    """Import ptffool from this checkout's src/, or stop."""
    if not (SRC / "ptffool" / "__init__.py").is_file():
        sys.exit(f"error: no ptffool package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import ptffool
    if Path(ptffool.__file__).resolve().parent != (SRC / "ptffool").resolve():
        sys.exit(f"error: ptffool imported from {ptffool.__file__}, not {SRC}")


def _child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(work, tracer=None) -> tuple[list[tuple[str, float, float, bool]], bool]:
    """Run every operation once, then check them untimed.

    Returns (name, wall seconds, CPU seconds, failed) per operation and
    whether every check of the operations that did not fail passed.
    """
    from oracles import CheckError

    timings = []
    results = {}
    for op_id, op in enumerate(work.ops):
        failed = False
        result = None
        # Each command would start in a fresh process; start each operation
        # from a collected heap so garbage left by the previous one is not
        # charged to it.
        gc.collect()
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(op_id, op.name):
                    result = op.run()
        except Exception:                       # the operation failed; count it
            failed = True
            print(f"[{work.name}] {op.name} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
        dt, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        failed = failed or op.is_failure(result)
        timings.append((op.name, dt, cpu, failed))
        if not failed:
            results[op.name] = result
        elif result is not None:
            print(f"[{work.name}] {op.name} failed with {result!r}", file=sys.stderr)

    correct = True
    for op in work.ops:
        if op.name not in results:
            continue
        try:
            op.check(results[op.name])
        except CheckError as exc:
            correct = False
            print(f"[{work.name}] CHECK FAILED {op.name}: {exc}", file=sys.stderr)
    try:
        work.round_check(results)
    except CheckError as exc:
        correct = False
        print(f"[{work.name}] CHECK FAILED round: {exc}", file=sys.stderr)
    work.clean()
    return timings, correct


def run_rounds(work, seconds: float, tracer=None) -> tuple[list[list], bool]:
    """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
    rounds, correct = [], True
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        timings, ok = run_round(work, tracer)
        rounds.append(timings)
        correct = correct and ok
    return rounds, correct


def _round_s(rounds: list[list], column: int = 1) -> float:
    """Operation seconds per round (wall, or CPU with column 2), averaged
    over the run's rounds."""
    return statistics.fmean(sum(t[column] for t in r) for r in rounds)


def _src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    _import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        work = workloads.build(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - _T_START
        if args.setup_only:
            print(repr(own_setup))
            return {}
        if not args.trace:
            setups = [own_setup] + [_child_setup_s(args)
                                    for _ in range(SETUP_SAMPLES - 1)]
            rounds, correct = run_rounds(work, args.seconds)
            ops = [t for r in rounds for t in r]
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "run_s": _metric(_round_s(rounds), "s"),
                "op_p50_s": _metric(statistics.median(t[1] for t in ops), "s"),
                "peak_rss_mib": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
        else:
            from tracing import Tracer, per_layer_metrics

            reference, correct = run_rounds(work, 0.0)
            tracer = Tracer()
            tracer.install()
            try:
                traced, ok = run_rounds(work, args.seconds, tracer)
            finally:
                tracer.uninstall()
            correct = correct and ok
            rounds = reference + traced
            ops = [t for r in rounds for t in r]
            # Spans and counts per traced round.
            values = {name: value / len(traced)
                      for name, value in tracer.layer_metrics().items()}
            values["process.cpu_s"] = _round_s(reference, column=2)
            values["tracing.overhead_s"] = _round_s(traced) - _round_s(reference)
            values["src.lines"] = _src_lines()
            metrics = {name: _metric(values[name], unit)
                       for name, unit, _ in per_layer_metrics()}
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_file, [op.name for op in work.ops])
            print(f"spans written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, dt, _, failed in ops:
        print(f"{args.workload:13s} {name:40s} {dt:9.3f} s{'  FAILED' if failed else ''}")
    return {"correct": correct, "attempted": len(ops),
            "failed": sum(1 for t in ops if t[3]), "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = body
    return total


def main(argv=None) -> int:
    args = _parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if not result:
        return 0
    for name, body in result["metrics"].items():
        print(f"{name:48s} {body['value']:>14.6g} {body['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{label}.json").write_text(line + "\n", encoding="ascii")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
