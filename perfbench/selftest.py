"""Self-test of the benchmark harness at desk scale; takes a few seconds.

    python3 perfbench/selftest.py

Runs every workload's job shape at (2,3) through the harness, traced and
untraced, checks that the oracles accept the real outputs and reject
corrupted ones, and that BENCHMARK.json names what the harness reports.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import unittest

import layers
import run
from workloads import SMALL, WORKLOADS, Workload, check

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _small(key: str, warmup: tuple[str, ...] | None = None) -> run.Bench:
    job = SMALL[key]
    return run.Bench(Workload(f"selftest_{key}", "self-test", warmup or job.argv, (job,)), random.Random(0))


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.outputs = {}
        for key in ("verify", "units", "analytic", "brute"):
            bench = _small(key, SMALL["brute_reference"] if key == "brute" else None)
            bench.set_up(2)
            bench.measure(0, trace=False)
            cls.outputs[key] = (bench, json.loads((run.OUT / f"{bench.w.name}.0.out").read_bytes()))

    def test_small_jobs_pass_their_oracles(self):
        for key, (bench, _) in self.outputs.items():
            self.assertEqual(bench.failures, [], key)
            metrics = bench.end_to_end()
            self.assertEqual([m for m, _ in run.END_TO_END], list(metrics))
            for name, (value, _unit, n) in metrics.items():
                self.assertGreater(value, 0, name)
                self.assertEqual(n, 2 if name == "setup_s" else 1)

    def test_corrupted_outputs_fail(self):
        corruptions = {
            "verify": lambda doc: doc["checks"].pop(),
            "units": lambda doc: doc["units"][0].update(trace=doc["units"][0]["trace"] + 1e-6),
            "analytic": lambda doc: doc["rows"][0].update(multiplicity=doc["rows"][0]["multiplicity"] + 1),
            "brute": lambda doc: doc.update(kernel_dim=doc["kernel_dim"] + 1),
        }
        for key, corrupt in corruptions.items():
            bench, doc = self.outputs[key]
            job = SMALL[key]
            self.assertIsNone(check(job, 0, json.dumps(doc).encode(), bench.reference), key)
            bad = copy.deepcopy(doc)
            corrupt(bad)
            self.assertIsNotNone(check(job, 0, json.dumps(bad).encode(), bench.reference), key)
            self.assertIsNotNone(check(job, 1, json.dumps(doc).encode(), bench.reference), key)
        self.assertIsNotNone(check(SMALL["verify"], 0, b"not json", None))

    def test_traced_run_accounts_for_wall_time(self):
        bench = _small("verify")
        bench.set_up(0)
        bench.measure(0, trace=True)
        self.assertEqual(bench.failures, [])
        metrics = {name: value for name, (value, _, _) in bench.per_layer().items()}
        self.assertEqual(sorted(metrics), sorted(name for name, *_ in layers.PER_LAYER))
        self_times = [metrics[f"{layer}.self_s"] for layer in layers.LAYERS]
        self.assertTrue(all(t >= 0 for t in self_times))
        self.assertAlmostEqual(
            sum(self_times) + metrics["trace.unattributed_s"], metrics["trace.wall_s"], delta=1e-6
        )
        self.assertGreater(metrics["trace.unattributed_s"], 0)
        # computed counts at (2,3): 2 top and 4 second-ideal row labels
        self.assertEqual(metrics["ideal_units.labels"], 6)
        self.assertEqual(metrics["ideal_units.units"], 2**2 + 4**2)
        self.assertEqual(metrics["checks.composition_pairs"], 2**4 + 4**4)
        self.assertEqual(metrics["checks.count"], 37)
        self.assertGreater(metrics["lowrank.frobenius_norm.calls"], 0)

    def test_benchmark_json_matches_harness(self):
        spec = json.loads(BENCHMARK.read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], [name for name, *_ in layers.PER_LAYER])
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [m for m, _ in run.END_TO_END])
        self.assertTrue({w["name"] for w in spec["workloads"]} <= set(WORKLOADS))
        setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertTrue(all(m["bound"] <= setup_bound for m in spec["end_to_end"]))

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCHMARK, bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify_3_3", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
