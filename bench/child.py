"""One pass of a workload, in the fresh interpreter a CLI user would start.

Run by ``run.py``, never by hand: it imports ``pcentropy`` from the checkout's
``src/``, parses the catalog maps the workload uses, then runs each op
through ``pcentropy.cli.main`` with stdout captured.  It prints one JSON
report as its only output line.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
# calibrate() on the reference box (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6) when no neighbour slows it down
CALIBRATION_REF_S = 0.05
MIN_CALIBRATIONS = 5


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted and numpy work like the routes' own.

    The speed of a shared box drifts by up to half over minutes as its
    neighbours' load changes.  Timing this loop between the ops of a pass lets
    the pass's times be rescaled to the box's usual speed.
    """
    start = time.perf_counter()
    rng = random.Random(0)
    xs = sorted(rng.random() for _ in range(20_000))
    acc = 0
    for _ in range(3):
        for x in xs:
            acc += bisect.bisect_left(xs, 0.5 * x)
    a = np.asarray(xs)
    for _ in range(100):
        np.sort(a * 1.0001)
        np.searchsorted(a, a[::7])
    if acc <= 0:
        raise AssertionError("calibration loop miscounted")
    return time.perf_counter() - start


def caches_empty() -> bool:
    """True when no module cache of pcentropy holds anything yet."""
    from pcentropy import bowen, catalog, symbolic

    parsed = any("map" in vars(catalog.get(name)) for name in catalog.names())
    return not symbolic._TABLES and not bowen._ORBIT_CACHE and not parsed


def run_op(main, argv) -> tuple[float, workloads.Outcome]:
    out = io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except Exception as exc:  # a failing op is timed and reported, not fatal to the pass
        error = type(exc).__name__
    return time.perf_counter() - start, workloads.Outcome(code, out.getvalue(), error)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import pcentropy

    if not Path(pcentropy.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"pcentropy imported from {pcentropy.__file__}, not from this checkout")
    from pcentropy import catalog, cli

    fresh = caches_empty()
    ops = workloads.ops(args.workload, args.seed)
    start = time.perf_counter()
    for name in workloads.maps_used(ops):
        catalog.get(name).map
    parse_s = time.perf_counter() - start
    setup_s = time.monotonic() - args.spawned_at
    calibrate()  # the first call in a process runs slower
    calibrations = [calibrate()]
    report = {"setup_s": setup_s, "fresh": fresh, "numpy": np.__version__}
    tracer = None
    if not args.setup_only:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        results = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            seconds, outcome = run_op(cli.main, op.argv)
            results.append({"seconds": seconds, **vars(outcome)})
            calibrations.append(calibrate())
        report["ops"] = results
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(calibrations) < MIN_CALIBRATIONS:
        calibrations.append(calibrate())
    # the box's speed during the pass, relative to its usual speed
    report["scale"] = scale = CALIBRATION_REF_S / statistics.median(calibrations)
    if tracer:
        output_bytes = sum(len(r["stdout"].encode()) for r in results)
        seconds = [r["seconds"] for r in results]
        report["layers"] = tracer.layers(seconds, scale, output_bytes, parse_s)
        report["c_n"] = tracer.c_n
        report["separated"] = tracer.separated
        report["spanning"] = tracer.spanning
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
