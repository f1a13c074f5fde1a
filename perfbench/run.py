"""Benchmark of the robust-makespan solvers, one workload per process.

    python3 perfbench/run.py --workload lib-narrow --seed 1 --seconds 20 --trace 0
    python3 -m pytest perfbench          # the benchmark's own tests

Run from the root of a source checkout: the package is imported from
`src/` there and nowhere else, and without it the run exits with status 1.
One single-threaded client runs operations in a closed loop (the next
starts when the previous returns) until `--seconds` have passed. Inputs
come only from `--seed`. Every operation's outputs are checked outside the
timed region; an exception or a failed check counts the operation as failed.

End-to-end metrics (`--trace 0`):

- regret_s, absolute_s: median seconds of one regret / absolute solve
  (file to file on cli-solve).
- jobs_per_s: jobs processed over the summed seconds of every timed call,
  cross-evaluations included; mean-based, so stalls a median hides show.
- setup_s: median seconds of one set-up: importing the package in a fresh
  interpreter, generating the inputs and building the instances (`columns`
  filled). Set-up is repeated at least SETUP_REPEATS times and until
  SETUP_SECONDS have been timed, with a calibration probe between repetitions.
- peak_rss_mb: peak resident memory of the process.

The seconds in these metrics are reference seconds: wall seconds times
calibrate.REFERENCE_S over the mean time of the fixed calibration probes run
just before and just after the operation or set-up (see calibrate.py for
why). The raw wall-second quartiles with their sample counts, and the
probe's median, sample count and factor, are in the run record. The record
also holds failed_share, the failed over the attempted operations; it is not
a gated metric because it is zero on a correct program.

Per-layer metrics (`--trace 1`) come from the second half of the run, with
the tracer installed (tracer.py); the first half runs untraced and gives the
base of the tracing overhead (trace.overhead = traced over untraced median
operation seconds, trace.base_op_s = that base). Their seconds are reference
seconds too.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. The line before it is the run record:
seed, input seed (the seed mod workloads.POOL), input digest, working-set
size, environment, raw timings, failures and, for traced runs, which
boundaries are absent. Traced runs also write their spans to `.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up is repeated at least this often, and until this much of it was timed
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0


def ensure_package() -> None:
    """Import robust_makespan from this checkout's src/, or exit with an error."""
    package = SRC / "robust_makespan"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no package source at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import robust_makespan

    if Path(robust_makespan.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported robust_makespan from {robust_makespan.__file__}, not {package}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import robust_makespan; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return float(out)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> dict:
    """Median, first and third quartile, and the sample count they rest on."""
    if len(values) < 2:
        return {"median": _median(values), "samples": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


class Run:
    """Operations of one measurement loop and what they produced."""

    def __init__(self):
        # (kind, seconds, jobs, index of the last probe sample before the call)
        self.calls: list[tuple[str, float, int, int]] = []
        self.op_seconds: list[float] = []  # timed seconds per successful operation
        self.ops: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def measure(workload, seconds: float, probe, first_op: int = 0, tracer=None) -> Run:
    """Run operations until `seconds` have passed (at least one), probing between them.

    A last probe follows the last operation, so every call has a probe on each side.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    k = first_op
    while run.attempted == 0 or time.perf_counter() < deadline:
        probe.maybe()
        before = len(probe.samples) - 1
        if tracer is not None:
            tracer.op = k
        try:
            calls, outputs = workload.run_op(k)
        except Exception:  # a failed operation is counted, not fatal
            problems = [traceback.format_exc(limit=3)]
        else:
            if tracer is not None:
                tracer.op = None  # checks are not part of the operation
            run.calls.extend((kind, s, jobs, before) for kind, s, jobs in calls)
            run.op_seconds.append(sum(c[1] for c in calls))
            run.ops.append(k)
            try:
                problems = workload.check(k, outputs)
            except Exception:  # malformed outputs are a failed operation too
                problems = [traceback.format_exc(limit=3)]
        finally:
            if tracer is not None:
                tracer.op = k
                tracer.finish_op()
                tracer.op = None
        run.attempted += 1
        if problems:
            run.failed += 1
            if len(run.errors) < 5:
                run.errors.append(f"op {k}: " + "; ".join(problems))
        k += 1
    probe()
    return run


def end_to_end(run: Run, setup_s: float, setup_wall_s: float, probe) -> tuple[dict, dict]:
    """(gated metrics in reference seconds, raw wall-second quartiles with sample counts).

    Each call is rescaled by the two probes around its operation. `setup_s` is
    in reference seconds already, `setup_wall_s` is its wall-second twin.
    """
    by_kind = {"regret": [], "absolute": []}
    ref_by_kind = {"regret": [], "absolute": []}
    timed = ref_timed = 0.0
    for kind, seconds, _, before in run.calls:
        ref_seconds = seconds * probe.factor_around(before)
        by_kind.get(kind, []).append(seconds)
        ref_by_kind.get(kind, []).append(ref_seconds)
        timed += seconds
        ref_timed += ref_seconds
    jobs = sum(c[2] for c in run.calls)
    metrics = {
        "regret_s": {"value": _median(ref_by_kind["regret"]), "unit": "s"},
        "absolute_s": {"value": _median(ref_by_kind["absolute"]), "unit": "s"},
        "jobs_per_s": {"value": jobs / ref_timed if ref_timed else 0.0, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    wall = {
        "regret_s": _quartiles(by_kind["regret"]),
        "absolute_s": _quartiles(by_kind["absolute"]),
        "jobs_per_s": {"value": jobs / timed if timed else 0.0, "timed_calls": len(run.calls)},
        "setup_s": {"value": setup_wall_s},
    }
    return metrics, wall


def per_layer(workload, untraced: Run, traced: Run, tracer, build_s: float,
              factor: float) -> dict:
    """Per-operation medians of the traced half; seconds in reference seconds."""
    metrics = tracer.layer_metrics(traced.ops)
    if metrics["core.instance_build_s"]["value"] == 0 and "core.instance_build_s" not in tracer.absent():
        # the library workloads build their instance only in set-up
        metrics["core.instance_build_s"]["value"] = build_s
    sizes = getattr(workload, "solution_bytes", [])
    metrics["cli.solution_bytes"] = {"value": _median(sizes), "unit": "B"}
    base = _median(untraced.op_seconds)
    metrics["trace.base_op_s"] = {"value": base, "unit": "s"}
    metrics["trace.overhead"] = {
        "value": _median(traced.op_seconds) / base if base else 0.0, "unit": "ratio"}
    for metric in metrics.values():
        if metric["unit"] == "s":
            metric["value"] *= factor
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ensure_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import machine
    import workloads
    from calibrate import Probe
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = Probe()
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        # one set-up: import in a fresh interpreter, generate the inputs, build
        setup_times, setup_factors, build_times = [], [], []
        probe()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            import_s = import_seconds()
            t0 = time.perf_counter()
            build_times.append(workload.setup())
            setup_times.append(import_s + time.perf_counter() - t0)
            probe()
            setup_factors.append(probe.factor_around(len(probe.samples) - 2))
        setup_s = statistics.median(t * f for t, f in zip(setup_times, setup_factors))

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "input_seed": workload.seed,
                  "input_sha256": workload.digest(),
                  "working_set": workload.working_set(), "environment": machine.environment(),
                  "setup_repeats_s": setup_times, "setup_factors": setup_factors}
        if args.trace == 0:
            run = measure(workload, args.seconds, probe)
            metrics, record["wall"] = end_to_end(run, setup_s, statistics.median(setup_times),
                                                 probe)
            runs = [run]
        else:
            untraced = measure(workload, args.seconds / 2, probe)
            tracer = Tracer(args.seed)
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, probe, first_op=untraced.attempted,
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(workload, untraced, traced, tracer,
                                statistics.median(build_times), probe.factor())
            record.update(untraced_ops=len(untraced.ops), traced_ops=len(traced.ops),
                          absent=tracer.absent(), boundaries=tracer.status)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            runs = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record.update(probe={"median_s": statistics.median(probe.samples),
                         "samples": len(probe.samples), "factor": probe.factor()},
                  failed_share=failed / attempted, errors=[e for r in runs for e in r.errors])
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
