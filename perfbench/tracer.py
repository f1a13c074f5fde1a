"""Span tracer that wraps the package's callables from the outside.

Every wrapped callable is found by attribute lookup at install time and put
back on `uninstall`; the package source is never edited. A name that no
longer exists (a later refactor renamed or merged a helper) is reported as
`absent` instead of raising, so the traced run keeps working while the
end-to-end metrics never depend on it.

Each span records (name, start, end, parent, operation id). Spans stay in
memory and are written out once, at the end. Self time is a span minus the
time its child spans cover; since one thread runs everything, children nest
inside their parent and that is the sum of the children's durations.
"""
from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
from time import perf_counter_ns

import numpy as np

PACKAGE = "robust_makespan"

# (module, attribute path, span name, mode). "span" records one span per
# call; "agg" adds the call's duration to its parent and a per-operation
# total without a span (Job construction runs once per job, 1e5 times per
# load). "local" rebinds the name only in that module, so a helper shared by
# several modules is timed only where this layer calls it. "rmq-args"
# additionally keeps the query arrays for the range counters.
TARGETS = [
    ("cli", "main", "cli.main", "span"),
    ("cli", "load_instance", "cli.load_instance", "span"),
    ("cli", "solve_to_payload", "cli.solve_to_payload", "span"),
    ("core", "Job.__init__", "core.job_init", "agg"),
    ("core", "Instance.__init__", "core.instance_init", "span"),
    ("core", "Instance.columns", "core.columns", "span"),
    ("core", "Schedule.__init__", "core.schedule_init", "span"),
    ("core", "evaluate", "core.evaluate", "span"),
    ("uncertainty", "normalize_u1", "uncertainty.normalize_u1", "span"),
    ("uncertainty", "candidate_scenario", "uncertainty.candidate_scenario", "span"),
    ("uncertainty", "extreme_scenarios", "uncertainty.extreme_scenarios", "span"),
    ("absolute", "solve_robust_absolute", "absolute.solve_robust_absolute", "span"),
    ("absolute", "worst_case_scenario_absolute", "absolute.worst_case_scenario_absolute", "span"),
    ("absolute", "robust_absolute_cost", "absolute.robust_absolute_cost", "span"),
    ("regret", "solve_robust_regret", "regret.solve_robust_regret", "span"),
    ("regret", "max_regret", "regret.max_regret", "span"),
    ("regret", "_all_optima_fast_arrays", "regret.all_optima_fast", "span"),
    ("regret", "_release_order", "regret.release_order", "span"),
    ("regret", "_profile_from_sorted", "regret.profile_from_sorted", "span"),
    ("regret", "_optima_sorted_numpy", "regret.optima_sorted_numpy", "span"),
    ("regret", "_stable_argsort", "regret.stable_argsort", "local"),
    ("regret", "_regret_report", "regret.regret_report", "span"),
    ("rmq", "IntervalMinTable.__init__", "rmq.table_init", "span"),
    ("rmq", "IntervalMinTable.range_min_many", "rmq.range_min_many", "rmq-args"),
]

# metric -> (unit, statistic, span names). "total" sums span durations,
# "self" sums self times, "calls" counts calls. Each is taken per operation
# and reported as the median over operations.
SPAN_METRICS = {
    "cli.load_instance_s": ("s", "total", ["cli.load_instance"]),
    "cli.solve_to_payload_self_s": ("s", "self", ["cli.solve_to_payload"]),
    "cli.serialize_s": ("s", "self", ["cli.main"]),
    "core.instance_build_s": ("s", "total", ["core.job_init", "core.instance_init", "core.columns"]),
    "core.schedule_build_s": ("s", "total", ["core.schedule_init"]),
    "core.evaluate_s": ("s", "total", ["core.evaluate"]),
    "core.evaluate_calls": ("count", "calls", ["core.evaluate"]),
    "uncertainty.normalize_s": ("s", "total", ["uncertainty.normalize_u1"]),
    "uncertainty.scenario_build_s": (
        "s", "total", ["uncertainty.candidate_scenario", "uncertainty.extreme_scenarios"]),
    "absolute.solve_self_s": ("s", "self", ["absolute.solve_robust_absolute"]),
    "absolute.worst_case_s": (
        "s", "total", ["absolute.worst_case_scenario_absolute", "absolute.robust_absolute_cost"]),
    "regret.solve_self_s": ("s", "self", ["regret.solve_robust_regret"]),
    "regret.max_regret_s": ("s", "total", ["regret.max_regret"]),
    "regret.optima_calls": ("count", "calls", ["regret.all_optima_fast"]),
    "regret.release_sort_s": ("s", "total", ["regret.release_order"]),
    "regret.profile_s": ("s", "total", ["regret.profile_from_sorted"]),
    "regret.optima_self_s": ("s", "self", ["regret.all_optima_fast"]),
    "regret.optima_sorted_self_s": ("s", "self", ["regret.optima_sorted_numpy"]),
    "regret.key_sort_s": ("s", "total", ["regret.stable_argsort"]),
    "regret.report_s": ("s", "total", ["regret.regret_report"]),
    "rmq.build_s": ("s", "total", ["rmq.table_init"]),
    "rmq.query_s": ("s", "total", ["rmq.range_min_many"]),
}
RMQ_METRICS = {
    "rmq.queries": "count",
    "rmq.empty_share": "share",
    "rmq.mean_range_len": "count",
    "rmq.blocks_per_query": "count",
    "rmq.table_bytes": "B",
}

# query ranges sampled per operation for the block-walk counter
BLOCK_SAMPLE = 256


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _resolve(module, path: str):
    """(owner, attribute name, current value) for a dotted attribute path."""
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    """Records spans around the package's callables while installed."""

    def __init__(self, seed: int):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent id, op, child_ns)
        self.aggregates: dict[tuple, list[int]] = {}  # (op, parent, name) -> [total_ns, calls]
        self.gc_events: list[tuple] = []  # (op, duration_ns)
        self.rmq_args: list[tuple] = []  # (table, lo, hi) of the current operation
        # op -> [queries, empty, summed range length, blocks walked, ranges walked, table bytes]
        self._rmq_rows: dict[object, list] = {}
        self.status: dict[str, str] = {}
        self.op = None
        self._stack: list[list] = []  # open spans: [name, start_ns, id, child_ns]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._gc_start = 0
        self._rng = np.random.default_rng(seed)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span_name, mode in TARGETS:
            try:
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                owner, name, original = _resolve(module, path)
                self._install_one(module, owner, name, original, span_name, mode)
            except (KeyError, AttributeError, TypeError):
                self.status[span_name] = "absent"
            else:
                self.status[span_name] = "present"
        gc.callbacks.append(self._on_gc)

    def _install_one(self, module, owner, name, original, span_name, mode) -> None:
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(self._wrap(original.func, span_name, mode))
            wrapped.__set_name__(owner, name)
        elif callable(original):
            wrapped = self._wrap(original, span_name, mode)
        else:
            raise TypeError(f"cannot wrap {span_name}")
        if isinstance(owner, type):
            self._set(owner, name, original, wrapped)
        elif mode == "local":
            self._set(module, name, original, wrapped)
        else:
            # rebind every module-level alias (`from .core import evaluate`)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    if mod is not None and mod.__dict__.get(name) is original:
                        self._set(mod, name, original, wrapped)

    def _set(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, span_name: str, mode: str):
        stack = self._stack
        if mode == "agg":
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter_ns() - t0
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[3] += dt
                    key = (self.op, parent[0] if parent else None, span_name)
                    entry = self.aggregates.setdefault(key, [0, 0])
                    entry[0] += dt
                    entry[1] += 1
            return timed

        capture = mode == "rmq-args"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if capture and len(args) >= 3:
                self.rmq_args.append(args[:3])
            self._next_id += 1
            frame = [span_name, perf_counter_ns(), self._next_id, 0]
            parent = stack[-1][2] if stack else None
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][3] += end - frame[1]
                self.spans.append((frame[2], span_name, frame[1], end, parent, self.op, frame[3]))
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start:
            self.gc_events.append((self.op, perf_counter_ns() - self._gc_start))
            self._gc_start = 0

    # -- per-operation layer metrics ----------------------------------------

    def absent(self) -> list[str]:
        """Metric names whose every boundary is missing from the package."""
        out = [
            metric for metric, (_, _, names) in SPAN_METRICS.items()
            if all(self.status.get(n) == "absent" for n in names)
        ]
        if self.status.get("rmq.range_min_many") == "absent":
            out += list(RMQ_METRICS)
        return out

    def layer_metrics(self, ops: list) -> dict[str, dict]:
        """Median over operations of every per-layer metric."""
        per_op: dict[str, dict[object, float]] = {m: {op: 0.0 for op in ops} for m in SPAN_METRICS}
        index = {}
        for metric, (_, stat, names) in SPAN_METRICS.items():
            for n in names:
                index.setdefault(n, []).append((metric, stat))
        opset = set(ops)
        for _, name, start, end, _, op, child_ns in self.spans:
            if op not in opset:
                continue
            for metric, stat in index.get(name, ()):
                if stat == "total":
                    per_op[metric][op] += (end - start) / 1e9
                elif stat == "self":
                    per_op[metric][op] += (end - start - child_ns) / 1e9
                else:
                    per_op[metric][op] += 1
        for (op, _, name), (total_ns, calls) in self.aggregates.items():
            if op not in opset:
                continue
            for metric, stat in index.get(name, ()):
                per_op[metric][op] += total_ns / 1e9 if stat != "calls" else calls

        out = {
            metric: {"value": _median(per_op[metric].values()), "unit": unit}
            for metric, (unit, _, _) in SPAN_METRICS.items()
        }
        gc_s = {op: 0.0 for op in ops}
        gc_n = {op: 0 for op in ops}
        for op, dt in self.gc_events:
            if op in opset:
                gc_s[op] += dt / 1e9
                gc_n[op] += 1
        out["py.gc_s"] = {"value": _median(gc_s.values()), "unit": "s"}
        out["py.gc_collections"] = {"value": _median(gc_n.values()), "unit": "count"}
        out.update(self._rmq_metrics(ops))
        for metric in self.absent():
            out[metric]["value"] = 0
        return out

    def finish_op(self) -> None:
        """Digest the current operation's range queries and drop the arrays."""
        row = self._rmq_rows.setdefault(self.op, [0, 0, 0, 0, 0, {}])
        for table, lo, hi in self.rmq_args:
            try:
                self._digest_queries(row, table, np.asarray(lo), np.asarray(hi))
            except (TypeError, ValueError, IndexError):
                self.status["rmq.range_min_many"] = "absent"  # arguments no longer ranges
        self.rmq_args.clear()

    def _digest_queries(self, row: list, table, lo: np.ndarray, hi: np.ndarray) -> None:
        nonempty = lo <= hi
        row[0] += lo.size
        row[1] += int(lo.size - np.count_nonzero(nonempty))
        row[2] += int((hi[nonempty] - lo[nonempty] + 1).sum())
        walk = getattr(table, "consumed_blocks", None)
        candidates = np.nonzero(nonempty)[0]
        if walk is not None and candidates.size:
            pick = self._rng.choice(candidates, size=min(BLOCK_SAMPLE, candidates.size),
                                    replace=False)
            row[3] += sum(len(walk(int(lo[i]), int(hi[i]))) for i in pick)
            row[4] += pick.size
        levels = getattr(table, "levels", None)
        if levels is not None:
            row[5][id(table)] = sum(level.nbytes for level in levels)

    def _rmq_metrics(self, ops: list) -> dict[str, dict]:
        """Range counters read from the intercepted range_min_many arguments."""
        cols = {m: [] for m in RMQ_METRICS}
        for op in ops:
            queries, empty, length, blocks, sampled, tables = self._rmq_rows.get(
                op, [0, 0, 0, 0, 0, {}])
            nonempty = queries - empty
            cols["rmq.queries"].append(queries)
            cols["rmq.empty_share"].append(empty / queries if queries else 0.0)
            cols["rmq.mean_range_len"].append(length / nonempty if nonempty else 0.0)
            cols["rmq.blocks_per_query"].append(blocks / sampled if sampled else 0.0)
            cols["rmq.table_bytes"].append(sum(tables.values()))
        return {m: {"value": _median(v), "unit": RMQ_METRICS[m]} for m, v in cols.items()}

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, child_ns in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "child_ns": child_ns}) + "\n")
            for (op, parent, name), (total_ns, calls) in self.aggregates.items():
                fh.write(json.dumps({"name": name, "aggregate": True, "parent": parent,
                                     "op": op, "total_ns": total_ns, "calls": calls}) + "\n")
