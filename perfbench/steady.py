"""Steadiness check: repeat the benchmark and compare the runs.

    python3 perfbench/steady.py

Runs ``run.py`` once per seed (1 to 10), workload and set (two sets) with
tracing off, then twice per trace seed (1 and 2) and workload with tracing
on, all for ``run_seconds`` from ``BENCHMARK.json``.  It then asserts, per
workload:

* every run is correct;
* each end-to-end metric's spread, the distance between the first and third
  quartile of its per-seed values (``statistics.quantiles(n=4)``) as a share
  of their median, stays within the metric's bound;
* the second set's median differs from the first set's, either way, by no
  more than the bound as a share of the first;
* output digests repeat exactly for a seed across all its runs, and the
  counts of traced runs repeat exactly for a seed.

Every run's result is appended to a JSON-lines log under ``.perfbench/``.
Exits 1 if an assertion fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
TRACE_SEEDS = (1, 2)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "run_wall_s": time.perf_counter() - start,
        "detail": json.loads(lines[-2][len("detail "):]),
        "result": json.loads(lines[-1]),
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def analyse(config: dict, runs: list[dict]) -> list[str]:
    failures = []
    for run in runs:
        if not run["result"]["correct"]:
            failures.append(f"{run['workload']} seed {run['seed']}: {run['result']['failed']} failed ops")
    for workload in [w["name"] for w in config["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        sets = sorted({r["set"] for r in mine if r["trace"] == 0})
        print(f"{workload}")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for s in sets:
                values = [r["result"]["metrics"][name]["value"] for r in mine if r["trace"] == 0 and r["set"] == s]
                medians.append(statistics.median(values))
                sp = spread(values)
                cells.append(f"set{s} median {medians[-1]:.5g} spread {sp:.3f}")
                if sp > bound:
                    failures.append(f"{workload} {name} set {s}: spread {sp:.3f} > bound {bound}")
            for s, m in zip(sets[1:], medians[1:]):
                shift = abs(m - medians[0]) / medians[0]
                if shift > bound:
                    failures.append(f"{workload} {name} set {s}: median moved by {shift:.3f} > bound {bound}")
            print(f"  {name:12s} bound {bound:<5} " + "; ".join(cells))
        for seed in sorted({r["seed"] for r in mine}):
            digests = {json.dumps(r["detail"]["digests"], sort_keys=True) for r in mine if r["seed"] == seed}
            if len(digests) != 1:
                failures.append(f"{workload} seed {seed}: output digests differ between runs")
            traced = [r for r in mine if r["seed"] == seed and r["trace"] == 1]
            counts = {json.dumps(r["detail"]["counts"], sort_keys=True) for r in traced}
            if len(counts) > 1 or not all(r["detail"]["tracing"]["counts_repeat_within_run"] for r in traced):
                failures.append(f"{workload} seed {seed}: traced counts differ between ops or runs")
            if traced:
                print(f"  seed {seed} counts {counts.pop()}")
            for r in traced:
                m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
                layers = m["scenario.self_s"] + m["planner.self_s"] + m["cli.self_s"]
                print(
                    f"    scenario+planner+cli self {layers:.4f} s, untraced op p50 "
                    f"{r['detail']['tracing']['untraced_op_p50_s']:.4f} s, overhead {m['trace.overhead_s']:.4f} s"
                )
    return failures


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    log = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    log.parent.mkdir(exist_ok=True)
    plan = [(s, seed, w, 0) for s in range(1, SETS + 1) for seed in SEEDS for w in names]
    plan += [(0, seed, w, 1) for _ in range(2) for seed in TRACE_SEEDS for w in names]
    runs = []
    for set_no, seed, workload, trace in plan:
        run = run_once(workload, seed, seconds, trace)
        run["set"] = set_no
        runs.append(run)
        with log.open("a") as fh:
            fh.write(json.dumps(run) + "\n")
        print(f"ran {workload} seed {seed} trace {trace} set {set_no} in {run['run_wall_s']:.1f} s", flush=True)
    failures = analyse(config, runs)
    for failure in failures:
        print("FAIL " + failure)
    print(f"log: {log}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
