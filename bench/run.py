"""Benchmark of the pcentropy CLI: end-to-end metrics per workload, per-layer
metrics from a separate traced run.

    python3 bench/run.py --workload ms-catalog --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each pass runs every op of the workload once, in a fresh interpreter, so the
module caches start empty as they do for a CLI user.  Passes repeat until
``--seconds`` have gone by, at least twice; the metrics are medians over the
passes.  With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, and the difference of the two kinds gives the tracing
overhead.  Every output is checked against ``expected/``.  The last stdout
line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up is measured at least this often per run
MIN_PASSES = 2  # a slow spell must not leave a run with a single pass
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(
        [*cmd, "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_pass(ops, report) -> dict:
    """Check each op's outcome; a pass is correct when every op passed or
    failed exactly the way it failed at the seed commit."""
    failed = good_records = 0
    correct = report["fresh"]
    for op, res in zip(ops, report["ops"], strict=True):
        outcome = workloads.Outcome(res["exit"], res["stdout"], res["error"])
        passed, known, records = workloads.check(op, outcome)
        good_records += records
        if not passed:
            failed += 1
            correct &= known
            print(f"op {op.id} failed: exit {outcome.exit}, error {outcome.error}", file=sys.stderr)
    raw_wall = sum(r["seconds"] for r in report["ops"])
    wall = raw_wall * report["scale"]
    return {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "cells_per_s": good_records / wall,
        "peak_rss_mb": report["rss_mb"],
        "ok_share": (len(ops) - failed) / len(ops),
        "failed": failed,
        "correct": correct,
    }


def _values(res, key) -> list[int]:
    return [int(row.split(",")[3]) for row in workloads.records(res["stdout"]) if row.startswith(key)]


def same_work(ops, plain: dict, traced: dict) -> list[str]:
    """Differences between a traced pass's counts and an untraced pass's
    outputs, for the ops that printed their output."""
    bad = []
    for i, (op, res) in enumerate(zip(ops, plain["ops"])):
        if res["error"] is not None:
            continue
        for key, column in (("c_n", "misiurewicz-szlenk,"), ("separated", "bowen-separated,"),
                            ("spanning", "bowen-spanning,")):
            want = _values(res, column)
            got = traced[key].get(str(i), [])
            if got != want:
                bad.append(f"{op.id} {key}: traced {got} vs untraced output {want}")
    return bad


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.ops(name, seed)
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        plain.append(spawn(name, seed))
        if trace:
            traced.append(spawn(name, seed, "--trace"))
        if len(plain) >= MIN_PASSES and time.monotonic() >= deadline:
            break
    plain_checks = [check_pass(ops, r) for r in plain]
    traced_checks = [check_pass(ops, r) for r in traced]
    wall = statistics.median(c["wall_s"] for c in plain_checks)
    if trace:
        mismatches = [m for t in traced for m in same_work(ops, plain[0], t)]
        if mismatches:
            raise BenchError("traced run did different work:\n  " + "\n  ".join(mismatches))
        metrics = {key: statistics.median(t["layers"][key] for t in traced) for key in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(c["wall_s"] for c in traced_checks) - wall
        units = layer_units()
    else:
        setups = plain + [spawn(name, seed, "--setup-only") for _ in range(SETUP_SAMPLES - len(plain))]
        metrics = {key: statistics.median(c[key] for c in plain_checks)
                   for key in ("wall_s", "cells_per_s", "peak_rss_mb", "ok_share")}
        metrics["setup_s"] = statistics.median(r["setup_s"] * r["scale"] for r in setups)
        units = END_TO_END
    checks = plain_checks + traced_checks
    return {
        "correct": all(c["correct"] for c in checks),
        "attempted": len(ops) * len(checks),
        "failed": sum(c["failed"] for c in checks),
        "passes": len(checks),
        "raw_wall_s": statistics.median(c["raw_wall_s"] for c in plain_checks),
        "numpy": plain[0]["numpy"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()["per_layer"]}


def environment(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout's git repository, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
    if os.environ.get("PCENTROPY_CAP"):
        print("error: unset PCENTROPY_CAP; it moves mod5's truncation point", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "pcentropy" / "__init__.py").is_file():
        print(f"error: no pcentropy sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace)) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        print(f"{name}: {res['passes']} passes, {res['failed']} of {res['attempted']} ops failed,"
              f" correct={res['correct']}, unscaled wall {res['raw_wall_s']:.3f} s")
        for key, m in res["metrics"].items():
            print(f"  {key:<32} {m['value']:>16.6g} {m['unit']}")
    first = next(iter(results.values()))
    print("env " + json.dumps(environment(args.seed, first["numpy"])))
    if len(results) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{name}.{k}": m for name, res in results.items() for k, m in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
