"""Spans around quantschemes' public functions, recorded from outside.

``Tracer.installed()`` replaces each target function by a timing wrapper in
every ``quantschemes`` module and class that binds it, and puts the
originals back on exit. Spans stay in memory; ``layer_metrics`` turns them
into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

PACKAGE = "quantschemes"
MIB = 2.0 ** 20


def _nbytes(arrays) -> float:
    return sum(a.nbytes for a in arrays) / MIB


def _file_mb(path) -> float:
    return os.path.getsize(path) / MIB


def _source_rows(source):
    return source.batch.shape[0] if source.is_batch else None


def _chain_cells(chain) -> dict:
    total = sum(chain.sizes)
    visited = sum(int((m > 0).sum()) for m in chain.marginals)
    return {"cells": total, "dead_cells": total - visited}


# target -> attributes of one call, from its bound arguments and its result
TARGETS = {
    "grids.assign": lambda a, r: {"N": a["grid"].size,
                                  "M": len(a["points"])},
    "grids.lloyd": lambda a, r: {"N": a["initial"].size,
                                 "M": _source_rows(a["source"]),
                                 "iterations": r[2]},
    "grids.distortion_and_gradient": lambda a, r: {
        "N": a["grid"].size, "M": _source_rows(a["source"])},
    "grids.newton_1d": lambda a, r: {"N": a["N"]},
    "chain.euler_paths": lambda a, r: {"M": a["num_paths"], "mb": _nbytes(r)},
    "chain.estimate_companions": lambda a, r: {"M": a["num_paths"],
                                               **_chain_cells(r)},
    "chain.build_layer_grids": None,
    "chain.save_chain": lambda a, r: {"binary": bool(a.get("binary")),
                                      "mb": _file_mb(a["path"])},
    "chain.load_chain": lambda a, r: {"mb": _file_mb(a["path"])},
    "bsde.solve_bsde": None,
    "filtering.ScalarFilterModel.build_filter": None,
    "filtering.quantized_kernels": lambda a, r: {"mb": _nbytes(r)},
    "filtering.forward_filter": None,
    "experiments.run_bidask": None,
    "experiments.run_multidim": None,
    "experiments.run_filter_demo": None,
    "cli.main": None,
}


def span_name(target: str) -> str:
    """E.g. 'filtering.ScalarFilterModel.build_filter' ->
    'filtering.build_filter'."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Records one span per call of each target; single-threaded."""

    def __init__(self, run_id: str = "0", targets: dict = TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, describe):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(describe(bound.arguments, result))
            return result
        return wrapper

    def _bind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            holders = [module] + [v for v in vars(module).values()
                                  if isinstance(v, type)
                                  and v.__module__.startswith(PACKAGE)]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def install(self) -> None:
        for target, describe in self.targets.items():
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                self.absent.append(target)
                continue
            self._bind_everywhere(
                original, self._wrap(span_name(target), original, describe))

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            [k for k in kids if k[1] > k[0]])
    return out


def unattributed(spans: list[dict], wall: float) -> float:
    """Traced wall time not covered by any span.

    Raises if the self times do not add up to the time the root spans
    cover, which would mean the span tree is inconsistent.
    """
    roots = _covered([(s["start"], s["end"]) for s in spans
                      if s["parent"] is None])
    total_self = sum(self_times(spans).values())
    if abs(total_self - roots) > 1e-6 * max(1.0, roots):
        raise ValueError(
            f"self times sum to {total_self}, roots cover {roots}")
    return wall - roots


# (metric, unit, better); reported for every workload of a traced run
PER_LAYER = [
    ("grids.assign.busy_s", "s", "lower"),
    ("grids.assign.calls", "count", "lower"),
    ("grids.assign.points", "count", "lower"),
    ("grids.assign.ns_per_point_cell", "ns", "lower"),
    ("grids.lloyd.busy_s", "s", "lower"),
    ("grids.lloyd.self_s", "s", "lower"),
    ("grids.lloyd.calls", "count", "lower"),
    ("grids.lloyd.iterations", "count", "lower"),
    ("grids.distortion_and_gradient.busy_s", "s", "lower"),
    ("grids.newton_1d.busy_s", "s", "lower"),
    ("grids.newton_1d.calls", "count", "lower"),
    ("chain.euler_paths.busy_s", "s", "lower"),
    ("chain.euler_paths.mb", "MiB", "lower"),
    ("chain.estimate_companions.busy_s", "s", "lower"),
    ("chain.estimate_companions.self_s", "s", "lower"),
    ("chain.dead_cells", "count", "lower"),
    ("chain.visited_ratio", "ratio", "higher"),
    ("chain.build_layer_grids.busy_s", "s", "lower"),
    ("chain.save_chain.busy_s", "s", "lower"),
    ("chain.save_chain.mb", "MiB", "lower"),
    ("chain.load_chain.busy_s", "s", "lower"),
    ("bsde.solve_bsde.busy_s", "s", "lower"),
    ("bsde.solve_bsde.calls", "count", "lower"),
    ("filtering.build_filter.self_s", "s", "lower"),
    ("filtering.quantized_kernels.busy_s", "s", "lower"),
    ("filtering.quantized_kernels.mb", "MiB", "lower"),
    ("filtering.forward_filter.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
]


# metrics read from another span than their name says
METRIC_SPAN = {"chain.dead_cells": "chain.estimate_companions",
               "chain.visited_ratio": "chain.estimate_companions"}


def layer_metrics(spans: list[dict], wall: float,
                  absent: list[str] = ()) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    A metric whose function is absent from the code is left out, so that
    it reads as missing rather than as zero time. ``trace.overhead_s`` and
    ``fail_ratio`` need untraced runs and are filled in by the caller.
    """
    gone = {span_name(t) for t in absent}
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def outer(name):
        # calls of `name` not nested inside another call of `name`
        ids = {s["id"] for s in by_name.get(name, [])}
        return [s for s in by_name.get(name, []) if s["parent"] not in ids]

    def busy(name):
        return sum(s["end"] - s["start"] for s in outer(name))

    def total(name, key):
        return sum(s.get(key) or 0 for s in by_name.get(name, []))

    def self_of(prefix):
        return sum(own[s["id"]] for s in spans if s["name"] == prefix
                   or s["name"].startswith(prefix + "."))

    chains = by_name.get("chain.estimate_companions", [])
    cells = sum(s["cells"] for s in chains)
    point_cells = sum(s["M"] * s["N"] for s in by_name.get("grids.assign", []))
    m = {
        "grids.assign.busy_s": busy("grids.assign"),
        "grids.assign.calls": len(by_name.get("grids.assign", [])),
        "grids.assign.points": total("grids.assign", "M"),
        "grids.assign.ns_per_point_cell":
            1e9 * busy("grids.assign") / point_cells if point_cells else 0.0,
        "grids.lloyd.busy_s": busy("grids.lloyd"),
        "grids.lloyd.self_s": self_of("grids.lloyd"),
        "grids.lloyd.calls": len(by_name.get("grids.lloyd", [])),
        "grids.lloyd.iterations": total("grids.lloyd", "iterations"),
        "grids.distortion_and_gradient.busy_s":
            busy("grids.distortion_and_gradient"),
        "grids.newton_1d.busy_s": busy("grids.newton_1d"),
        "grids.newton_1d.calls": len(by_name.get("grids.newton_1d", [])),
        "chain.euler_paths.busy_s": busy("chain.euler_paths"),
        "chain.euler_paths.mb": total("chain.euler_paths", "mb"),
        "chain.estimate_companions.busy_s": busy("chain.estimate_companions"),
        "chain.estimate_companions.self_s":
            self_of("chain.estimate_companions"),
        "chain.dead_cells": total("chain.estimate_companions", "dead_cells"),
        "chain.visited_ratio":
            1.0 - total("chain.estimate_companions", "dead_cells") / cells
            if cells else 0.0,
        "chain.build_layer_grids.busy_s": busy("chain.build_layer_grids"),
        "chain.save_chain.busy_s": busy("chain.save_chain"),
        "chain.save_chain.mb": total("chain.save_chain", "mb"),
        "chain.load_chain.busy_s": busy("chain.load_chain"),
        "bsde.solve_bsde.busy_s": busy("bsde.solve_bsde"),
        "bsde.solve_bsde.calls": len(by_name.get("bsde.solve_bsde", [])),
        "filtering.build_filter.self_s": self_of("filtering.build_filter"),
        "filtering.quantized_kernels.busy_s":
            busy("filtering.quantized_kernels"),
        "filtering.quantized_kernels.mb":
            total("filtering.quantized_kernels", "mb"),
        "filtering.forward_filter.self_s": self_of("filtering.forward_filter"),
        "experiments.self_s": self_of("experiments"),
        "cli.self_s": self_of("cli"),
        "trace.unattributed_s": unattributed(spans, wall),
    }
    for metric in list(m):
        if METRIC_SPAN.get(metric, metric.rsplit(".", 1)[0]) in gone:
            del m[metric]
    return m
