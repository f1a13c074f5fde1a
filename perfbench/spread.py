"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads lib-narrow cli-solve --seeds 10 --output FILE

Spread is the distance between the first and third quartile of a metric's
values, as a share of their median. Runs are sequential, one process each,
and every run's result line is kept in the output file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1]),
            "process_s": time.perf_counter() - t0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            res = runs[-1]["result"]
            print(workload, seed, round(runs[-1]["process_s"], 1), res["correct"],
                  res["attempted"], res["failed"],
                  {k: round(v["value"], 6) for k, v in res["metrics"].items()}, flush=True)
        names = runs[0]["result"]["metrics"]
        stats = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = summarize(values) | {"unit": names[name]["unit"]}
        stats["probe.median_s"] = summarize([r["record"]["probe"]["median_s"] for r in runs])
        # the same timings in raw wall seconds, before rescaling by the probe
        for name in runs[0]["record"].get("wall", {}):
            wall = [r["record"]["wall"][name] for r in runs]
            stats[f"wall.{name}"] = summarize([w.get("median", w.get("value")) for w in wall])
        report[workload] = {
            "seconds": seconds, "trace": args.trace, "summary": stats,
            "environment": runs[0]["record"]["environment"],
            "runs": [{"seed": r["record"]["seed"], "input_sha256": r["record"]["input_sha256"],
                      "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                      "wall": r["record"].get("wall"), "probe": r["record"]["probe"],
                      "setup_repeats_s": r["record"]["setup_repeats_s"],
                      "setup_factors": r["record"]["setup_factors"],
                      "absent": r["record"].get("absent"), "process_s": r["process_s"]}
                     for r in runs],
        }
        for name, s in stats.items():
            print(f"  {workload:12s} {name:30s} median {s['median']:.6g} "
                  f"IQR/median {s['spread']:.4f} (n={s['samples']})", flush=True)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
