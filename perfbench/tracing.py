"""Spans around calls into the package's public functions.

The benchmark wraps each traced function at every module attribute of
the package that binds it (``popcount_u64`` lives in ``gf2`` but is also
bound in ``cube`` and ``spaces``), records one span per call and
restores the originals afterwards.  Spans stay in memory until the run
writes them out.  Nothing in the package itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

PACKAGE = "ptffool"

# (layer, attribute path inside the module) for every traced function.
TRACED = [
    ("cli", "main"),
    ("fooling", "worst_case_lp"),
    ("fooling", "intersection_deviation"),
    ("fooling", "sandwich_from_dual"),
    ("fooling", "linprog"),
    ("cube", "parity_column"),
    ("cube", "poly_values"),
    ("spaces", "build_kwise_bernoulli"),
    ("spaces", "verify_kwise_exact"),
    ("spaces", "dump_sample_space"),
    ("spaces", "load_sample_space"),
    ("spaces", "GaussianSpace.sample_batch"),
    ("gf2", "gf_mul_vec"),
    ("gf2", "popcount_u64"),
    ("gw", "round_with_space"),
    ("moments", "eigenbound_ratio"),
    ("moments", "exact_moment_hypercube"),
    ("moments", "moment_fourier_exact"),
    ("poly", "eigendecompose_symmetric"),
    ("poly", "spectral_decompose"),
    ("tree", "build_tree"),
    ("tree", "classify_leaf"),
    ("mollify", "deriv_l1_norm"),
]

SPAN_NAMES = [f"{layer}.{attr}" for layer, attr in TRACED]

# Counts read from arguments and return values: (name, unit, better).
COUNTS = [
    ("fooling.linprog.iterations", "count", "lower"),
    ("fooling.linprog.rows", "count", "lower"),
    ("fooling.linprog.cols", "count", "lower"),
    ("fooling.witness_repaired", "count", "higher"),
    ("fooling.witness_support", "count", "lower"),
    ("spaces.parities_checked", "count", "lower"),
    ("spaces.file_bytes", "bytes", "lower"),
    ("tree.leaves", "count", "lower"),
]

# Reference figures the run adds next to the spans and counts.
REFERENCE = [
    ("process.cpu_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
    ("src.lines", "count", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    return out + COUNTS + REFERENCE


def _count_linprog(counts, args, kwargs, result) -> None:
    counts["fooling.linprog.iterations"] += int(result.nit)
    rows, cols = kwargs["A_eq"].shape
    counts["fooling.linprog.rows"] += rows
    counts["fooling.linprog.cols"] += cols


def _count_witness(counts, args, kwargs, result) -> None:
    for witness in (result.witness_max, result.witness_min):
        if witness is not None:
            counts["fooling.witness_repaired"] += 1
            counts["fooling.witness_support"] += witness.num_points


def _count_parities(counts, args, kwargs, result) -> None:
    counts["spaces.parities_checked"] += result.subsets_checked


def _count_file_bytes(counts, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["spaces.file_bytes"] += os.path.getsize(path)


def _count_leaves(counts, args, kwargs, result) -> None:
    counts["tree.leaves"] += result.leaf_count()


_COUNTERS: dict[str, Callable] = {
    "fooling.linprog": _count_linprog,
    "fooling.worst_case_lp": _count_witness,
    "spaces.verify_kwise_exact": _count_parities,
    "spaces.dump_sample_space": _count_file_bytes,
    "tree.build_tree": _count_leaves,
}


class Tracer:
    """Records spans (name, start, end, parent, op) while installed."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op: Optional[int] = None

    # -- spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int, label: str):
        """One benchmark operation: the root span of everything it calls."""
        self.op = op_id
        idx = self._open(f"op:{label}")
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:          # outside an operation: a check, untraced
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    # -- installation

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, attr in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._replace(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapped)

    def _replace(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results

    def layer_metrics(self) -> dict[str, float]:
        """calls, inclusive seconds and self seconds per traced name.

        Self time is a span's duration minus the union of its children's
        intervals.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name not in SPAN_NAMES:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += (end - start) - covered
        for name, _, _ in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out

    def dump(self, path, ops: list[str]) -> None:
        """Write every span as JSON: [name, start, end, parent, op]."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": ops, "spans": self.spans}, fh)
