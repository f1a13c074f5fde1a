"""Tests of the benchmark itself, at sizes small enough to run in seconds.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import run

run.ensure_package()

import robust_makespan  # noqa: E402
import checks  # noqa: E402
from calibrate import Probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _ready(name, seed, workdir):
    workdir.mkdir(exist_ok=True)
    workload = workloads.make(name, seed, workdir, tiny=True)
    workload.setup()
    return workload


PROBE = Probe()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_input_digest(name, tmp_path):
    first = _ready(name, 5, tmp_path / "a").digest()
    second = _ready(name, 5, tmp_path / "b").digest()
    third = _ready(name, 6, tmp_path / "c").digest()
    assert first == second
    assert first != third


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_completes_an_operation_cleanly(name, tmp_path):
    result = run.measure(_ready(name, 3, tmp_path), 0, PROBE)
    assert result.attempted >= 1
    assert result.failed == 0, result.errors
    assert {call[0] for call in result.calls} >= {"regret", "absolute"}


def test_wrong_library_objective_counts_as_failure(tmp_path):
    workload = _ready("lib-narrow", 3, tmp_path)
    honest = workload.run_op

    def off_by_one(k):
        calls, (perm, regret, per, abs_perm, cost) = honest(k)
        return calls, (perm, regret, per, abs_perm, cost + 1)

    workload.run_op = off_by_one
    result = run.measure(workload, 0, PROBE)
    assert result.failed == result.attempted == 1
    assert "absolute" in result.errors[0]


def test_suboptimal_absolute_order_with_its_true_cost_counts_as_failure(tmp_path):
    workload = _ready("lib-narrow", 3, tmp_path)
    honest = workload.run_op
    _, _, p, _, r_hi = workload.columns

    def latest_release_first(k):
        calls, (perm, regret, per, abs_perm, cost) = honest(k)
        worse = np.asarray(abs_perm)[::-1]
        return calls, (perm, regret, per, worse, checks.makespan(r_hi[worse - 1], p[worse - 1]))

    workload.run_op = latest_release_first
    result = run.measure(workload, 0, PROBE)
    assert result.failed == result.attempted == 1
    assert "!= optimum" in result.errors[0]


def test_regret_other_than_the_pinned_one_counts_as_failure(tmp_path):
    workload = _ready("lib-wide", 3, tmp_path)
    assert run.measure(workload, 0, PROBE).failed == 0
    regret = workload.reference.first["regret"]
    workload.reference = None
    workload.pins = {workload.pin_key(): regret + 1}
    result = run.measure(workload, 0, PROBE, first_op=1)
    assert result.failed == 1
    assert "pinned optimum" in result.errors[0]
    workload.reference = None
    workload.pins = {}
    result = run.measure(workload, 0, PROBE, first_op=2)
    assert result.failed == 1
    assert "no pinned regret optimum" in result.errors[0]


def test_every_full_size_input_is_pinned():
    pins = workloads.load_pins()
    assert len(pins) == len(workloads.WORKLOADS) * workloads.POOL
    batches = [v for v in pins.values() if isinstance(v, list)]
    assert len(batches) == workloads.POOL
    assert all(len(optima) == 400 for optima in batches)


def test_repeated_identical_outputs_pass_and_changed_ones_fail(tmp_path):
    workload = _ready("small-batch", 3, tmp_path)
    # two passes: each instance is verified in full, then matched to that output
    for k in range(2 * workload.count):
        clean = run.measure(workload, 0, PROBE, first_op=k)
        assert clean.failed == 0, clean.errors
    honest = workload.run_op

    def other_order(k):
        calls, outputs = honest(k)
        perm = outputs[3]
        return calls, (*outputs[:3], perm[1:] + perm[:1], *outputs[4:])

    workload.run_op = other_order
    assert run.measure(workload, 0, PROBE, first_op=2 * workload.count).failed == 1


def test_wrong_solution_file_counts_as_failure(tmp_path):
    workload = _ready("cli-solve", 3, tmp_path)
    honest = workload.run_op

    def corrupt(k):
        calls, outputs = honest(k)
        path = workload.outputs(k)["regret"]
        doc = json.loads(path.read_text())
        doc["per_candidate"][0] += 1
        path.write_text(json.dumps(doc))
        return calls, outputs

    workload.run_op = corrupt
    result = run.measure(workload, 0, PROBE)
    assert result.failed == result.attempted == 1


def test_malformed_solution_file_counts_as_failure(tmp_path):
    workload = _ready("cli-solve", 3, tmp_path)
    honest = workload.run_op

    def without_per_candidate(k):
        calls, outputs = honest(k)
        path = workload.outputs(k)["regret"]
        doc = json.loads(path.read_text())
        del doc["per_candidate"]
        path.write_text(json.dumps(doc))
        return calls, outputs

    workload.run_op = without_per_candidate
    result = run.measure(workload, 0, PROBE)
    assert result.failed == result.attempted == 1
    assert "per_candidate" in result.errors[0]


def test_changed_objective_between_operations_counts_as_failure(tmp_path):
    workload = _ready("lib-wide", 3, tmp_path)
    assert run.measure(workload, 0, PROBE).failed == 0
    # as if the first operation had found a different optimum
    workload.reference.verified.clear()
    workload.reference.first["regret"] -= 1
    assert run.measure(workload, 0, PROBE, first_op=1).failed == 1


def test_traced_run_reports_every_layer_and_restores_the_package(tmp_path):
    originals = {name: getattr(robust_makespan.regret, name)
                 for name in ("evaluate", "_release_order", "_stable_argsort")}
    init = robust_makespan.core.Schedule.__init__
    workload = _ready("cli-solve", 3, tmp_path)
    t = tracer.Tracer(seed=3)
    t.install()
    try:
        traced = run.measure(workload, 0, PROBE, tracer=t)
    finally:
        t.uninstall()
    assert traced.failed == 0, traced.errors
    metrics = run.per_layer(workload, traced, traced, t, build_s=0.0, factor=1.0)
    expected = set(tracer.SPAN_METRICS) | set(tracer.RMQ_METRICS) | {
        "py.gc_s", "py.gc_collections", "cli.solution_bytes", "trace.base_op_s", "trace.overhead"}
    assert set(metrics) == expected
    assert t.absent() == []
    assert metrics["cli.load_instance_s"]["value"] > 0
    assert metrics["rmq.queries"]["value"] == workload.n
    assert metrics["regret.optima_calls"]["value"] == 1
    for name, fn in originals.items():
        assert getattr(robust_makespan.regret, name) is fn
    assert robust_makespan.core.Schedule.__init__ is init


def test_missing_boundary_is_reported_absent(tmp_path, monkeypatch):
    renamed = [
        ("regret", "_renamed_helper", "regret.release_order", "span")
        if target[1] == "_release_order" else target
        for target in tracer.TARGETS
    ]
    monkeypatch.setattr(tracer, "TARGETS", renamed)
    workload = _ready("lib-narrow", 3, tmp_path)
    t = tracer.Tracer(seed=3)
    t.install()
    try:
        traced = run.measure(workload, 0, PROBE, tracer=t)
    finally:
        t.uninstall()
    assert traced.failed == 0
    assert t.status["regret.release_order"] == "absent"
    assert t.absent() == ["regret.release_sort_s"]
    assert t.layer_metrics(traced.ops)["regret.release_sort_s"]["value"] == 0
