"""Write ``expected/`` from the current tree.

    python3 bench/capture.py

Run once, at the commit that defined the benchmark.  Every op's stdout is
taken from a benchmark pass, so it is what the CLI printed there, except for
three ops whose expected bytes come from elsewhere:

- ``ms-tent-phi`` expects plain tent's bytes at the same n; this script checks
  that two different conjugacies print exactly those bytes.
- ``cover-tent-halves`` raises RecursionError in the recursive subcover
  search.  Its expected output is the same op run with a deeper stack.
- ``verify-anzie`` prints FAIL on the refined-cover boundary row.  Its seed
  output is kept as ``verify-anzie.seed.out``; the expected output is the
  same table with that row passing.
"""

from __future__ import annotations

import sys
import threading

import run
import workloads
from child import run_op

sys.path.insert(0, str(run.ROOT / "src"))
from pcentropy import cli  # noqa: E402

BOUNDARY_ROW = "boundary of refined natural cover = Delta^n"


def cli_output(argv, deep_stack=False) -> workloads.Outcome:
    if not deep_stack:
        return run_op(cli.main, argv)[1]
    result = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000_000)
    threading.stack_size(1 << 29)
    try:
        worker = threading.Thread(target=lambda: result.append(run_op(cli.main, argv)[1]))
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
    return result[0]


def main():
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    files: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        ops = workloads.ops(name, seed=0)
        report = run.spawn(name, 0)
        for op, res in zip(ops, report["ops"], strict=True):
            if op.seed_error is not None:
                if res["error"] != op.seed_error:
                    sys.exit(f"{op.id}: expected {op.seed_error}, got {res['error']}")
                deep = cli_output(op.argv, deep_stack=True)
                code, text = deep.exit, deep.stdout
            elif op.seed_exit is not None:
                if res["exit"] != op.seed_exit:
                    sys.exit(f"{op.id}: expected exit {op.seed_exit}, got {res['exit']}")
                files[f"{op.id}.seed.out"] = res["stdout"]
                lines = res["stdout"].splitlines(keepends=True)
                fails = [i for i, ln in enumerate(lines) if " FAIL  " in ln]
                if [lines[i].split(" FAIL ")[0].strip() for i in fails] != [BOUNDARY_ROW]:
                    sys.exit(f"{op.id}: unexpected failing rows {fails}")
                lines[fails[0]] = lines[fails[0]].replace(" FAIL  ", " pass  ", 1)
                code, text = 0, "".join(lines)
            else:
                code, text = res["exit"], res["stdout"]
            if code != op.exit:
                sys.exit(f"{op.id}: exit {code}, expected {op.exit}")
            files[f"{op.id}.out"] = text

    plain = cli_output(("entropy", "--catalog", "tent", "--method", "ms", "--n-max", "14"))
    for seed in (0, 1):
        phi = workloads.phi_literal(workloads.phi_for_seed(seed))
        conj = cli_output(("entropy", "--catalog", "tent", "--method", "ms", "--n-max", "14", "--phi", phi))
        if conj != plain:
            sys.exit(f"conjugacy by {phi} changed the ms output")
    files["ms-tent-phi.out"] = plain.stdout

    for fname, text in sorted(files.items()):
        (workloads.EXPECTED_DIR / fname).write_text(text, encoding="utf-8")
        print(f"wrote expected/{fname} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
