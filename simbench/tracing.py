"""In-memory span tracing around the public calls of each actsense layer.

The tracer replaces a function or method with a wrapper that records a
span (name, start, end, parent span, run id) and, where given, a work
count taken from the call's arguments or result.  Spans live in flat
arrays until the run ends and :meth:`Tracer.write` stores them.  A
target that the program no longer has is recorded as absent and is not
wrapped, so the traced run still completes after a layer is removed.

Run ids group spans: each top-level span and each simulation
(``simulator.run_with_state``) opens a new run id that its descendants
share.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped call: ``module:qualname`` plus the span name to record."""

    where: str                     # "module:qualname", e.g. "actsense.als_engine:fit"
    span: str                      # e.g. "als_engine.fit"
    count: Callable | None = None  # (args, kwargs, result) -> {counter: amount}
    new_run: bool = False


def _fit_counts(args, kwargs, result):
    report = result[2]
    return {"als_engine.fits": 1, "als_engine.sweeps": report.sweeps_run,
            "als_engine.converged_fits": int(report.converged)}


TARGETS = (
    Target("actsense.cli:main", "cli.main"),
    Target("actsense.data_io:load_csv", "data_io.load_csv"),
    Target("actsense.data_io:write_report", "data_io.write_report"),
    Target("actsense.data_io:read_report", "data_io.read_report"),
    Target("actsense.simulator:run_with_state", "simulator.run_with_state", new_run=True),
    Target("actsense.simulator:step_month", "simulator.step_month"),
    Target("actsense.simulator:reveal", "simulator.reveal"),
    # simulator imports this by name, so its own binding is the one to wrap
    Target("actsense.simulator:rmse_appliance_month", "evaluation.rmse"),
    Target("actsense.tensor_core:ObservationSet.union", "tensor_core.union",
           count=lambda a, k, r: {"tensor_core.omega_cells": len(r)}),
    Target("actsense.tensor_core:LatentFactors.reconstruct", "tensor_core.reconstruct"),
    Target("actsense.strategies:CandidatePool.build", "strategies.pool_build"),
    Target("actsense.strategies:select_actsense", "strategies.select_actsense",
           count=lambda a, k, r: {"strategies.installs": len(r.chosen)}),
    Target("actsense.strategies:select_random", "strategies.select_random",
           count=lambda a, k, r: {"strategies.installs": len(r.chosen)}),
    Target("actsense.strategies:select_qbc", "strategies.select_qbc",
           count=lambda a, k, r: {"strategies.installs": len(r.chosen)}),
    Target("actsense.uncertainty:invert_stats", "uncertainty.invert_stats"),
    Target("actsense.uncertainty:score_pairs", "uncertainty.score_pairs",
           count=lambda a, k, r: {"uncertainty.pairs_scored": len(r)}),
    Target("actsense.als_engine:fit", "als_engine.fit", count=_fit_counts),
    Target("actsense.als_engine:accumulate_stats", "als_engine.accumulate_stats"),
    # private helpers of fit: the solve (with its condition guard), the
    # projection and the dead-column revival (warm starts revive through
    # the same helper)
    Target("actsense.als_engine:_solve_family", "als_engine.solve"),
    Target("actsense.als_engine:_project_rows", "als_engine.project"),
    Target("actsense.als_engine:_revive_columns", "als_engine.revive"),
    # the condition guard's SVD, attributed to its caller through the parent span
    Target("numpy.linalg:cond", "numpy.linalg.cond"),
    Target("actsense._kernels:accumulate_outer", "kernels.accumulate_outer",
           count=lambda a, k, r: {"kernels.accumulate_outer_rows": len(a[2])}),
    Target("actsense._kernels:predict_cells", "kernels.predict_cells"),
    Target("actsense._kernels:quadform_batch", "kernels.quadform_batch"),
)


def _resolve(where):
    """(owner object, attribute name, current value) or None if absent."""
    module_name, _, qualname = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # read class attributes raw, so a classmethod keeps its descriptor
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Records spans while installed; restores every wrapped call on removal."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []                 # span name per name id
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts = {}
        self.absent = []
        self._stack = []                # open span ids
        self._next_run = 0
        self._restore = []

    # -- installation --------------------------------------------------

    def install(self):
        for target in self.targets:
            found = _resolve(target.where)
            if found is None:
                self.absent.append(target.span)
                continue
            owner, attr, value = found
            if isinstance(value, classmethod):
                wrapped = classmethod(self._wrap(value.__func__, target))
            else:
                wrapped = self._wrap(value, target)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, value))
        return self

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, fn, target):
        name_id = self._name_ids.get(target.span)
        if name_id is None:
            name_id = self._name_ids[target.span] = len(self.names)
            self.names.append(target.span)
        stack = self._stack
        clock = time.perf_counter
        count = target.count
        new_run = target.new_run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(name_id)
            if stack and not new_run:
                self.run.append(self.run[stack[-1]])
            else:
                self.run.append(self._next_run)
                self._next_run += 1
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    # -- results -------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def durations(self):
        """Per-span (total, self) seconds; self excludes child spans."""
        n = len(self.start)
        total = [self.end[i] - self.start[i] for i in range(n)]
        own = list(total)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= total[i]
        return total, own

    def write(self, path):
        """Store every span as gzip-compressed CSV, times in microseconds
        from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_us,end_us,parent,run\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name_id[i]]},"
                         f"{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f},"
                         f"{self.parent[i]},{self.run[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


class Summary:
    """Span totals, self times and counters of one traced pass, by name."""

    def __init__(self, tracer: Tracer):
        total, own = tracer.durations()
        names = [tracer.names[i] for i in tracer.name_id]
        self.recorded = set(names)
        self.absent = set(tracer.absent)
        self.counts = tracer.counts
        self.total = {}
        self.self = {}
        self.under = {}               # (name, parent name) -> total
        for i, name in enumerate(names):
            self.total[name] = self.total.get(name, 0.0) + total[i]
            self.self[name] = self.self.get(name, 0.0) + own[i]
            p = tracer.parent[i]
            key = (name, names[p] if p >= 0 else None)
            self.under[key] = self.under.get(key, 0.0) + total[i]
        self.layers = self._layers(names, tracer.parent, total, own)

    @staticmethod
    def _layers(names, parents, total, own):
        """Per layer (module): total time of its outermost spans and self time.

        The condition guard's ``numpy.linalg.cond`` spans count towards the
        layer that called them.
        """
        layer_of = []
        for i, name in enumerate(names):
            layer = name.split(".", 1)[0]
            if layer == "numpy" and parents[i] >= 0:
                layer = layer_of[parents[i]]
            layer_of.append(layer)
        out = {}
        for i, layer in enumerate(layer_of):
            row = out.setdefault(layer, [0.0, 0.0])
            p = parents[i]
            if p < 0 or layer_of[p] != layer:
                row[0] += total[i]
            row[1] += own[i]
        return out

    def ms(self, *names):
        return 1e3 * sum(self.total.get(n, 0.0) for n in names)

    def self_ms(self, *names):
        return 1e3 * sum(self.self.get(n, 0.0) for n in names)

    def under_ms(self, name, parent):
        return 1e3 * self.under.get((name, parent), 0.0)

    def count(self, name):
        return self.counts.get(name, 0)


_SELECTS = ("strategies.select_actsense", "strategies.select_random",
            "strategies.select_qbc")

# name, unit, the spans it is read from, how
PER_LAYER = (
    ("kernels.accumulate_outer_ms", "ms", ("kernels.accumulate_outer",),
     lambda s: s.ms("kernels.accumulate_outer")),
    ("kernels.accumulate_outer_rows", "count", ("kernels.accumulate_outer",),
     lambda s: s.count("kernels.accumulate_outer_rows")),
    ("kernels.predict_cells_ms", "ms", ("kernels.predict_cells",),
     lambda s: s.ms("kernels.predict_cells")),
    ("kernels.quadform_batch_ms", "ms", ("kernels.quadform_batch",),
     lambda s: s.ms("kernels.quadform_batch")),
    ("als_engine.fit_ms", "ms", ("als_engine.fit",), lambda s: s.ms("als_engine.fit")),
    ("als_engine.fit_self_ms", "ms", ("als_engine.fit",),
     lambda s: s.self_ms("als_engine.fit")),
    ("als_engine.accumulate_stats_ms", "ms", ("als_engine.accumulate_stats",),
     lambda s: s.ms("als_engine.accumulate_stats")),
    ("als_engine.solve_ms", "ms", ("als_engine.solve",), lambda s: s.ms("als_engine.solve")),
    ("als_engine.cond_guard_ms", "ms", ("als_engine.solve",),
     lambda s: s.under_ms("numpy.linalg.cond", "als_engine.solve")),
    ("als_engine.project_ms", "ms", ("als_engine.project",),
     lambda s: s.ms("als_engine.project")),
    ("als_engine.revive_ms", "ms", ("als_engine.revive",), lambda s: s.ms("als_engine.revive")),
    ("als_engine.fits", "count", ("als_engine.fit",), lambda s: s.count("als_engine.fits")),
    ("als_engine.sweeps", "count", ("als_engine.fit",), lambda s: s.count("als_engine.sweeps")),
    ("als_engine.sweeps_per_fit", "sweeps", ("als_engine.fit",),
     lambda s: s.count("als_engine.sweeps") / max(s.count("als_engine.fits"), 1)),
    ("als_engine.converged_fits", "count", ("als_engine.fit",),
     lambda s: s.count("als_engine.converged_fits")),
    ("strategies.qbc_committee_fit_ms", "ms", ("strategies.select_qbc",),
     lambda s: s.under_ms("als_engine.fit", "strategies.select_qbc")),
    ("strategies.pool_build_ms", "ms", ("strategies.pool_build",),
     lambda s: s.ms("strategies.pool_build")),
    ("strategies.select_self_ms", "ms", _SELECTS, lambda s: s.self_ms(*_SELECTS)),
    ("strategies.installs", "count", _SELECTS, lambda s: s.count("strategies.installs")),
    ("simulator.reveal_ms", "ms", ("simulator.reveal",), lambda s: s.ms("simulator.reveal")),
    ("simulator.step_month_self_ms", "ms", ("simulator.step_month",),
     lambda s: s.self_ms("simulator.step_month")),
    ("tensor_core.union_ms", "ms", ("tensor_core.union",), lambda s: s.ms("tensor_core.union")),
    ("tensor_core.omega_cells", "count", ("tensor_core.union",),
     lambda s: s.count("tensor_core.omega_cells")),
    ("tensor_core.reconstruct_ms", "ms", ("tensor_core.reconstruct",),
     lambda s: s.ms("tensor_core.reconstruct")),
    ("uncertainty.invert_stats_ms", "ms", ("uncertainty.invert_stats",),
     lambda s: s.ms("uncertainty.invert_stats")),
    ("uncertainty.score_pairs_ms", "ms", ("uncertainty.score_pairs",),
     lambda s: s.ms("uncertainty.score_pairs")),
    ("uncertainty.pairs_scored", "count", ("uncertainty.score_pairs",),
     lambda s: s.count("uncertainty.pairs_scored")),
    ("evaluation.rmse_ms", "ms", ("evaluation.rmse",), lambda s: s.ms("evaluation.rmse")),
    ("data_io.load_csv_ms", "ms", ("data_io.load_csv",), lambda s: s.ms("data_io.load_csv")),
    ("data_io.write_report_ms", "ms", ("data_io.write_report",),
     lambda s: s.ms("data_io.write_report")),
    ("data_io.read_report_ms", "ms", ("data_io.read_report",),
     lambda s: s.ms("data_io.read_report")),
    ("cli.main_self_ms", "ms", ("cli.main",), lambda s: s.self_ms("cli.main")),
)


def per_layer(summary: Summary):
    """(metrics, absent): every PER_LAYER metric as {"value", "unit"}, and
    for each metric that could not be measured the reason.  An absent
    metric reads 0."""
    metrics, absent = {}, {}
    for name, unit, sources, how in PER_LAYER:
        if all(src in summary.absent for src in sources):
            absent[name] = "not in the program"
        elif not any(src in summary.recorded for src in sources):
            absent[name] = "not used by this workload"
        metrics[name] = {"value": 0 if name in absent else how(summary), "unit": unit}
    return metrics, absent
