"""The benchmark's workloads: which CLI invocations each runs, and what each must print.

Every operation ("op") is one `pcentropy` CLI invocation.  Its expected result
is an exit code plus the exact stdout bytes, stored under ``expected/``.  Two
ops fail at the commit that defined the benchmark; for those the expected
result is the true one and ``seed_failure`` records how they fail, so the
failure counts against the program instead of being skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# seed 0 conjugates tent by this homeomorphism; other seeds draw the interior node
PHI_SEED0 = ((0.0, 0.0), (0.35, 0.55), (1.0, 1.0))
PHI_PLACEHOLDER = "{phi}"


@dataclass(frozen=True)
class Outcome:
    """What one op did: its exit code (None if it raised), stdout, and the
    class name of the exception it raised, if any."""

    exit: int | None
    stdout: str
    error: str | None = None


@dataclass(frozen=True)
class Op:
    id: str  # names the expected-output file
    argv: tuple[str, ...]
    exit: int = 0
    seed_error: str | None = None  # exception the op raises at the seed commit
    seed_exit: int | None = None  # exit code at the seed commit, stdout in <id>.seed.out

    def expected(self) -> Outcome:
        return Outcome(self.exit, _read(f"{self.id}.out"))

    def seed_failure(self) -> Outcome | None:
        if self.seed_error is not None:
            return Outcome(None, "", self.seed_error)
        if self.seed_exit is not None:
            return Outcome(self.seed_exit, _read(f"{self.id}.seed.out"))
        return None


def _read(name: str) -> str:
    return (EXPECTED_DIR / name).read_text(encoding="utf-8")


def _entropy(name: str, method: str, *extra: str) -> tuple[str, ...]:
    return ("entropy", "--catalog", name, "--method", method, *extra)


def _verify(name: str, *extra: str) -> tuple[str, ...]:
    return ("verify", "--catalog", name, *extra)


_MS_MAPS = ("mod2", "mod3", "mod5", "tent", "asym-tent", "anzie", "iet2-golden", "pw-contraction", "identity")

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "ms-catalog": (
        *(Op(f"ms-{m}", _entropy(m, "ms", "--n-max", "12"), exit=2 if m == "mod5" else 0) for m in _MS_MAPS),
        Op("ms-lorenz-full", _entropy("lorenz-full", "ms", "--n-max", "17")),
        # conjugacy preserves c_n, so the expected bytes are plain tent's at n = 14
        Op("ms-tent-phi", _entropy("tent", "ms", "--n-max", "14", "--phi", PHI_PLACEHOLDER)),
    ),
    "bowen-sample": tuple(
        Op(f"bowen-{m}", _entropy(m, "bowen", "--n-range", "4:10", "--eps", "0.05,0.02", "--grid", "4097"))
        for m in ("tent", "lorenz-full")
    ),
    "cover-refine": (
        Op("cover-mod3", _entropy("mod3", "cover", "--n-max", "10")),
        # the recursive branch-and-bound overflows Python's stack at n = 11;
        # 1421 is the exact count the same algorithm gives with a deeper stack
        Op(
            "cover-tent-halves",
            _entropy("tent", "cover", "--cover", "{(0,0.55),(0.45,1)}", "--n-max", "11"),
            seed_error="RecursionError",
        ),
        Op("cover-lorenz-full", _entropy("lorenz-full", "cover", "--n-max", "12")),
        Op("cover-anzie", _entropy("anzie", "cover", "--n-max", "12")),
    ),
    "verify-reuse": (
        Op("verify-tent-phi", _verify("tent", "--n-max", "12", "--power-k", "2", "--phi", PHI_PLACEHOLDER)),
        Op("verify-mod3", _verify("mod3", "--n-max", "11", "--power-k", "3")),
        Op("verify-lorenz-full", _verify("lorenz-full", "--n-max", "14", "--power-k", "2")),
        # Delta^n keeps the endpoint 1.0 (f(1) = 0.7 is a cut point) while the
        # refined cover's boundary keeps only interior points, so the seed
        # prints FAIL on that row; the true result is that every row passes
        Op("verify-anzie", _verify("anzie", "--n-max", "12", "--power-k", "2"), seed_exit=1),
    ),
}


def phi_for_seed(seed: int) -> tuple[tuple[float, float], ...]:
    if seed == 0:
        return PHI_SEED0
    rng = random.Random(seed)
    return ((0.0, 0.0), (rng.uniform(0.25, 0.45), rng.uniform(0.45, 0.65)), (1.0, 1.0))


def phi_literal(phi) -> str:
    return "[" + ",".join(f"({x!r},{y!r})" for x, y in phi) + "]"


def ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops with the seeded conjugacy filled in."""
    phi = phi_literal(phi_for_seed(seed))
    return [
        replace(op, argv=tuple(phi if a == PHI_PLACEHOLDER else a for a in op.argv))
        for op in WORKLOADS[workload]
    ]


def maps_used(op_list) -> list[str]:
    """Catalog maps the ops load, in first-use order."""
    names = []
    for op in op_list:
        name = op.argv[op.argv.index("--catalog") + 1]
        if name not in names:
            names.append(name)
    return names


def records(text: str) -> list[str]:
    """The series records of an op's stdout: CSV value rows or verify rows."""
    return [
        line for line in text.splitlines()
        if line != "method,n,eps,value,flag" and not line.startswith("estimate,")
    ]


def check(op: Op, actual: Outcome) -> tuple[bool, bool, int]:
    """(passed, known seed failure, records that pass) for one op's outcome.

    An op passes only with the expected exit code and byte-identical stdout.
    A failed op still credits the records that match the expected ones line
    by line.
    """
    expected = op.expected()
    if actual == expected:
        return True, False, len(records(expected.stdout))
    good = sum(a == e for a, e in zip(records(actual.stdout), records(expected.stdout)))
    return False, actual == op.seed_failure(), good
