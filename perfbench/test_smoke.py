#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload at tiny shapes for one second, untraced and traced, and
checks that each end-to-end and per-layer metric of BENCHMARK.json is
present with its unit, that outputs check out, and that ok_ratio is 1. Also
checks that the benchmark refuses to run without the program's sources.

    python3 perfbench/test_smoke.py      # from the root of the repository
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, run_py=RUN):
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", "1"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class SmokeTest(unittest.TestCase):

    def check(self, workload, trace, wanted):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = {m["name"]: m["unit"] for m in wanted}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, got in result["metrics"].items():
            self.assertEqual(got["unit"], names[name], name)
            self.assertIsInstance(got["value"], (int, float), name)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 0, SPEC["end_to_end"])
                self.assertEqual(m["ok_ratio"]["value"], 1)
                self.assertGreater(m["setup_s"]["value"], 0)

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1, SPEC["per_layer"])
                self.assertGreater(m["core.parts_coverage_ratio"]["value"], 0)
                trace = os.path.join(ROOT, ".bench_build", "perfbench-traces",
                                     f"{w['name']}-seed3.jsonl")
                with open(trace) as f:
                    spans = [json.loads(line) for line in f]
                self.assertTrue(any(s["name"] == "core.forward" for s in spans))

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("serve-t96", 0, cwd=bare,
                   run_py=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
