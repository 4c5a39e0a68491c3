#!/usr/bin/env python3
"""Guard tests for the benchmark, run from the root of a checkout:

    python3 perfbench/test_guards.py

For each workload it makes two traced runs at the default seed and checks:

* exact counts: the deterministic work counters repeat exactly across runs;
* sizing: each workload still exercises the layer it exists for (serve_hot
  hits the plan cache and executes in under half the round trip, serve_cold
  misses and evicts, batch_paper executes for at least 90% of job time
  without exhausting its budget, morsel_wide's largest intermediate spans at
  least 8 default morsels);
* every answer was right and every operation succeeded.

The traced run enforces the deterministic guards itself; the timing guards
(execution shares) are enforced only here.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: default seed, build)

SECONDS = "4"
DEFAULT_MORSEL_ROWS = 64 * 1024
EXACT_COUNTS = (
    "exec.tuples_produced",
    "exec.max_intermediate_rows",
    "exec.peak_bytes",
    "plan_cache.misses",
    "plan_cache.evictions",
    "morsel.morsels",
)


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", SECONDS, "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    guards = {}
    for line in lines:
        if line.startswith("guard "):
            name, verdict = line[len("guard "):].split(": ", 1)
            guards[name] = verdict.startswith("pass")
    result = json.loads(lines[-1]) if lines else {}
    return out.returncode, result, guards, out.stdout + out.stderr


class GuardTest(unittest.TestCase):
    def check(self, workload):
        first = traced_run(workload)
        second = traced_run(workload)
        for code, result, guards, log in (first, second):
            self.assertEqual(code, 0, log)
            self.assertTrue(result["correct"], log)
            self.assertEqual(result["failed"], 0, log)
            self.assertTrue(guards, log)
            for name, passed in guards.items():
                self.assertTrue(passed, f"guard {name} failed\n{log}")
        a, b = first[1]["metrics"], second[1]["metrics"]
        for name in EXACT_COUNTS:
            self.assertEqual(a[name]["value"], b[name]["value"],
                             f"{workload}: {name} differs between runs")
        return a

    def test_serve_hot(self):
        m = self.check("serve_hot")
        self.assertGreaterEqual(m["plan_cache.hit_ratio"]["value"], 0.99)

    def test_serve_cold(self):
        m = self.check("serve_cold")
        self.assertEqual(m["plan_cache.hit_ratio"]["value"], 0)
        self.assertGreater(m["plan_cache.evictions"]["value"], 0)

    def test_batch_paper(self):
        self.check("batch_paper")

    def test_morsel_wide(self):
        m = self.check("morsel_wide")
        self.assertGreaterEqual(m["exec.max_intermediate_rows"]["value"],
                                8 * DEFAULT_MORSEL_ROWS)


if __name__ == "__main__":
    unittest.main()
