"""The teachsel benchmark: one workload per run, scenario files in, reports out.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 25 --trace 0

The run writes the workload's scenario files from ``--seed`` under
``.perfbench/``, times fresh interpreters importing the CLI (``setup_s``)
before and after the loop, and starts ``worker.py`` in a fresh process: a
closed loop with one client that calls ``teachsel.cli.main(argv)`` in
process for ``--seconds`` seconds.
The first op's outputs are checked here against values the benchmark
computes itself, and every later op must reproduce their sha256 digests; an
op that exits non-zero, raises, or fails a check counts as failed and the
run goes on.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced ops and reports the per-layer
metrics (see ``tracer.py``) and the tracing overhead.  The last line of
stdout is the result as one JSON object; the line before it (``detail``)
holds workload parameters, machine facts, digests and exact counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Set-up is sampled before and after the worker, so a slow spell of the
# host skews at most half the samples.
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def git_sha() -> str:
    """HEAD of the repository at ROOT, read from ``.git``; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, which identifies it without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters to import the CLI, numpy included."""
    src = str(ROOT / "src")
    code = "import sys, teachsel.cli; sys.exit(teachsel.cli.__file__.startswith(sys.argv[1]) is False)"
    env = {**os.environ, "PYTHONPATH": src}
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, src], env=env, cwd=ROOT, capture_output=True, timeout=60
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"importing teachsel.cli from {src} failed:\n{proc.stderr.decode()}")
    return samples


def tail(times: list[float]) -> dict:
    """The slowest sample that still has TAIL_BEYOND samples slower than it.

    With fewer than TAIL_BEYOND + 1 samples no percentile has that support,
    and the fastest sample is reported; ``percentile`` and ``samples`` say
    which order statistic the value is.
    """
    ordered = sorted(times)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / len(ordered),
        "samples": len(ordered),
        "slower": len(ordered) - index - 1,
    }


def check(command, out: bytes) -> list[str]:
    """The command's check on its output; output the check cannot read is a problem, not a crash."""
    try:
        return command.check(out)
    except Exception as exc:  # any malformed output must count as a failed op, never end the run
        return [f"unreadable output: {exc!r}"]


def tally(reference: dict, problems: dict[str, list[str]], ops: list[dict]) -> list[str | None]:
    """One failure reason per failed op, in op order (None for ops that passed).

    The reference op's outputs were checked in full; a timed op passes only
    if it exited 0 without raising and its output digests equal the
    reference's.
    """
    reference_bad = not reference["ok"] or any(problems.values())
    reasons = []
    for op in ops:
        if not op["ok"]:
            reasons.append(op["error"])
        elif op["digests"] != reference["digests"]:
            reasons.append("output differs from the reference op")
        elif reference_bad:
            reasons.append("reference output failed its check")
        else:
            reasons.append(None)
    return reasons


def end_to_end(ops: list[dict], peak_rss_kib: int, setup: list[float]) -> tuple[dict, dict]:
    times = [op["wall_s"] for op in ops]
    tail_info = tail(times)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_info["value"],
        "op_cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "setup_s": statistics.median(setup),
    }
    return metrics, tail_info


def per_layer(ops: list[dict], spans: list[dict]) -> tuple[dict, dict, dict]:
    """Medians over traced ops of each layer's self time; counts from the first traced op.

    Counts must repeat exactly from op to op; ``counts_repeat_within_run``
    says whether they did.
    """
    totals = tracer.layer_totals(spans)
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    by_op = [totals.get(op["index"]) for op in traced]
    by_op = [t for t in by_op if t is not None]

    def med(get) -> float:
        return statistics.median(get(t) for t in by_op) if by_op else 0.0

    metrics = {
        f"{layer}.self_s": med(lambda t, layer=layer: t["self_s"].get(layer, 0.0))
        for layer in ("scenario", "model", "planner", "dynamics", "tradeoff", "oracle", "robustness", "cli")
    }
    first = by_op[0] if by_op else {"counts": {}, "calls": {}, "leaf_calls_in": {}}
    counts = {
        "scenario.in_bytes": first["counts"].get("scenario.in_bytes", 0),
        "planner.calls": first["calls"].get("planner", 0),
        "dynamics.calls": first["calls"].get("dynamics", 0),
        "tradeoff.thresholds": first["counts"].get("tradeoff.thresholds", 0),
        "tradeoff.intervals": first["counts"].get("tradeoff.intervals", 0),
        "oracle.prefixes": first["counts"].get("oracle.prefixes", 0),
        "robustness.trials": first["counts"].get("robustness.trials", 0),
        "robustness.violations": first["counts"].get("robustness.violations", 0),
        "cli.out_bytes": sum(traced[0]["out_bytes"]),
    }
    enumerate_calls = first["leaf_calls_in"].get("teachsel.tradeoff.enumerate_optimal_subsets", 0)
    metrics.update(counts)
    metrics["tradeoff.probe_yield"] = counts["tradeoff.intervals"] / enumerate_calls if enumerate_calls else 0.0
    traced_p50 = statistics.median(op["wall_s"] for op in traced)
    untraced_p50 = statistics.median(op["wall_s"] for op in untraced) if untraced else traced_p50
    # Each traced op is paired with the untraced op right after it, so a slow
    # spell of the host mostly cancels within a pair.
    pairs = [ops[i]["wall_s"] - ops[i + 1]["wall_s"] for i in range(0, len(ops) - 1, 2)]
    metrics["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
    exact = {
        "counts_repeat_within_run": len({json.dumps([t["counts"], t["calls"]], sort_keys=True) for t in by_op}) <= 1,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "traced_op_p50_s": traced_p50,
        "untraced_op_p50_s": untraced_p50,
        "overhead_pairs": len(pairs),
        "spans_cover_s": med(lambda t: t["root_s"]),
        "self_sum_s": med(lambda t: sum(t["self_s"].values())),
    }
    return metrics, counts, exact


def run(args) -> dict:
    if not (ROOT / "src" / "teachsel" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'teachsel'} is missing")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
    started = time.perf_counter()
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        setup = measure_setup()
        spec = {
            "root": str(ROOT),
            "workdir": str(workdir),
            "commands": [list(c.argv) for c in workload.commands],
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        (workdir / "spec.json").write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (time.perf_counter() - started) - 15.0
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(workdir / "spec.json")],
                cwd=ROOT, capture_output=True, timeout=budget,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {budget:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
        setup += measure_setup()
        result = json.loads((workdir / "worker.json").read_text())
        spans = json.loads((workdir / "spans.json").read_text()) if args.trace else []
        reference = result["reference"]
        problems = {
            command.label: check(command, (workdir / "reference" / f"{idx}.out").read_bytes())
            for idx, command in enumerate(workload.commands)
        }
        if args.trace:
            keep = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
            keep.parent.mkdir(exist_ok=True)
            shutil.copyfile(workdir / "spans.json", keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    for index, op in enumerate(ops):
        op["index"] = index
    reasons = tally(reference, problems, ops)
    failed = sum(r is not None for r in reasons)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "machine": machine_facts(),
        "closed_loop_clients": 1,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "failures": sorted({r for r in reasons if r is not None})[:5],
        "check_problems": {k: v[:5] for k, v in problems.items() if v},
        "digests": {c.label: d for c, d in zip(workload.commands, reference["digests"])},
        "out_bytes": {c.label: b for c, b in zip(workload.commands, reference["out_bytes"])},
        "op_wall_s": [op["wall_s"] for op in ops],
        "command_p50_s": {
            c.label: statistics.median(op["command_wall_s"][i] for op in ops)
            for i, c in enumerate(workload.commands)
        },
        "setup_samples_s": setup,
    }
    if args.trace:
        metrics, counts, exact = per_layer(ops, spans)
        detail.update(counts=counts, tracing=exact, absent=result["absent"], counter_errors=result["counter_errors"])
        wanted = config["per_layer"]
    else:
        metrics, detail["tail"] = end_to_end(ops, result["peak_rss_kib"], setup)
        wanted = config["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        },
    }


def print_report(out: dict) -> None:
    detail, result = out["detail"], out["result"]
    print(
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
        f"{result['attempted']} ops, {result['failed']} failed"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':24s} {detail['error_rate']:.6g} ratio")
    if "tail" in detail:
        t = detail["tail"]
        print(f"  op_tail_s is p{t['percentile']:.0f} of {t['samples']} ops ({t['slower']} slower)")
    if "tracing" in detail:
        t = detail["tracing"]
        print(
            f"  traced p50 {t['traced_op_p50_s']:.4f} s over {t['traced_ops']} ops, "
            f"untraced p50 {t['untraced_op_p50_s']:.4f} s over {t['untraced_ops']} ops; "
            f"spans cover {t['spans_cover_s']:.4f} s, self times sum to {t['self_sum_s']:.4f} s"
        )
    for reason in detail["failures"]:
        print(f"  failure: {reason}")
    for label, found in detail["check_problems"].items():
        print(f"  check {label}: {found}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print_report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
