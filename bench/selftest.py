"""Self-tests of the benchmark itself (not of pcentropy).

    python3 bench/selftest.py

Kept out of pytest's default collection so the package's own suite does not
run them.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_report(ops, outcomes, fresh=True) -> dict:
    return {
        "fresh": fresh,
        "rss_mb": 1.0,
        "scale": 1.0,
        "ops": [{"seconds": 0.5, **vars(o)} for o in outcomes],
    }


def flip_one_byte(text: str) -> str:
    i = len(text) // 2
    return text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]


class Names(unittest.TestCase):
    def setUp(self):
        self.spec = run.spec()

    def test_workloads_match_spec(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        for name in names:
            self.assertRegex(name, NAME)

    def test_end_to_end_metrics_match_spec(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)

    def test_layer_metrics_match_spec(self):
        from spans import Tracer

        produced = set(Tracer().layers([], 1.0, 0, 0.0)) | {"trace.overhead_s"}
        self.assertEqual(produced, set(run.layer_units()))

    def test_every_name_is_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)


class OutputCheck(unittest.TestCase):
    def test_expected_outputs_pass(self):
        for name in workloads.WORKLOADS:
            ops = workloads.ops(name, seed=3)
            checked = run.check_pass(ops, fake_report(ops, [op.expected() for op in ops]))
            self.assertEqual(checked["failed"], 0, name)
            self.assertTrue(checked["correct"], name)

    def test_one_byte_change_fails_the_op(self):
        for name in workloads.WORKLOADS:
            ops = workloads.ops(name, seed=0)
            for i, op in enumerate(ops):
                outcomes = [o.expected() for o in ops]
                outcomes[i] = replace(outcomes[i], stdout=flip_one_byte(outcomes[i].stdout))
                checked = run.check_pass(ops, fake_report(ops, outcomes))
                self.assertEqual(checked["failed"], 1, op.id)
                self.assertFalse(checked["correct"], op.id)

    def test_wrong_exit_code_fails_the_op(self):
        ops = workloads.ops("ms-catalog", seed=0)
        outcomes = [o.expected() for o in ops]
        mod5 = [o.id for o in ops].index("ms-mod5")
        outcomes[mod5] = replace(outcomes[mod5], exit=0)
        self.assertEqual(run.check_pass(ops, fake_report(ops, outcomes))["failed"], 1)

    def test_seed_failures_count_as_failed_ops(self):
        for name in ("cover-refine", "verify-reuse"):
            ops = workloads.ops(name, seed=0)
            outcomes = [op.seed_failure() or op.expected() for op in ops]
            checked = run.check_pass(ops, fake_report(ops, outcomes))
            self.assertEqual(checked["failed"], 1, name)
            self.assertEqual(checked["ok_share"], 0.75, name)
            # failing exactly as at the seed commit is not a new defect
            self.assertTrue(checked["correct"], name)

    def test_conjugated_ops_expect_plain_tent_bytes(self):
        ops = {op.id: op for op in workloads.ops("ms-catalog", seed=1)}
        phi = workloads.phi_literal(workloads.phi_for_seed(1))
        self.assertIn(phi, ops["ms-tent-phi"].argv)
        self.assertNotEqual(phi, workloads.phi_literal(workloads.PHI_SEED0))
        self.assertIn("misiurewicz-szlenk,14,,16384,", ops["ms-tent-phi"].expected().stdout)


class FreshRun(unittest.TestCase):
    def test_caches_are_empty_when_a_pass_starts(self):
        self.assertTrue(run.spawn("cover-refine", 0, "--setup-only")["fresh"])

    def test_warm_cache_is_detected(self):
        from child import caches_empty
        from pcentropy import catalog

        catalog.get("identity").map
        self.assertFalse(caches_empty())

    def test_stale_pass_is_not_correct(self):
        ops = workloads.ops("bowen-sample", seed=0)
        report = fake_report(ops, [op.expected() for op in ops], fresh=False)
        self.assertFalse(run.check_pass(ops, report)["correct"])


class Refusals(unittest.TestCase):
    def test_refuses_to_run_with_a_cap_override(self):
        os.environ["PCENTROPY_CAP"] = "1000"
        try:
            self.assertEqual(run.main(["--workload", "bowen-sample"]), 2)
        finally:
            del os.environ["PCENTROPY_CAP"]

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cover-refine", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class SameWork(unittest.TestCase):
    def test_mismatch_between_traced_counts_and_output_is_reported(self):
        ops = workloads.ops("ms-catalog", seed=0)
        plain = fake_report(ops, [op.expected() for op in ops])
        mod2 = [op.id for op in ops].index("ms-mod2")
        counts = [2 ** n for n in range(1, 13)]
        traced = {"c_n": {}, "separated": {}, "spanning": {}}
        for i, op in enumerate(ops):
            traced["c_n"][str(i)] = run._values(plain["ops"][i], "misiurewicz-szlenk,")
        self.assertEqual(traced["c_n"][str(mod2)], counts)
        self.assertEqual(run.same_work(ops, plain, traced), [])
        traced["c_n"][str(mod2)] = counts[:-1] + [counts[-1] + 1]
        self.assertEqual(len(run.same_work(ops, plain, traced)), 1)


if __name__ == "__main__":
    unittest.main()
