"""Pin the optimal worst regret of every full-size input the benchmark can run.

    python3 perfbench/pin.py --commit <short hash of the solver version used>

For each workload and each of the POOL inputs, solve it with the package in
this checkout, check the outputs with everything but the pin (checks.py),
and record the worst regret under the digest of the input's columns in
pinned.json. Run it only on a solver version whose outputs are trusted: the
benchmark then fails any later output that differs from these values.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import run

run.ensure_package()

import workloads  # noqa: E402


def regret_optima(workload) -> int | list[int]:
    """The workload's regret objective(s) from one pass over its instances."""
    if isinstance(workload, workloads.CliSolve):
        workload.run_op(0)
        optimum = json.loads(workload.outputs(0)["regret"].read_text())["objective"]
        problems = workload.check(0, None)
    elif isinstance(workload, workloads.SmallBatch):
        optimum, problems = [], []
        for k in range(workload.count):
            _, outputs = workload.run_op(k)
            optimum.append(int(outputs[1]))
            problems += workload.check(k, outputs)
    else:
        _, outputs = workload.run_op(0)
        optimum = int(outputs[1])
        problems = workload.check(0, outputs)
    if problems:
        raise RuntimeError("; ".join(problems))
    return optimum


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()
    workdir = run.OUT / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in range(workloads.POOL):
                t0 = time.perf_counter()
                workload = workloads.make(name, seed, workdir)
                workload.pins = None  # checked without pins, since these are being made
                workload.setup()
                key = workload.pin_key()
                pins[key] = regret_optima(workload)
                print(name, seed, key[:16], round(time.perf_counter() - t0, 1), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"about": "Optimal worst regret of each full-size input (a list per small-batch "
                    "input), keyed by the sha256 of its columns; made with perfbench/pin.py.",
           "commit": args.commit, "pool": workloads.POOL, "regret_optimum": pins}
    workloads.PINNED.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
