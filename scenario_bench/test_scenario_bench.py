#!/usr/bin/env python3
"""The scenario benchmark's own tests.

    python3 scenario_bench/test_scenario_bench.py

Builds the driver through run.py (under .bench_build/) and checks that
  * a workload's report digest is identical at 1, 2 and 4 workers;
  * a traced run's ledger rows plus engine residuals equal its traced wall
    within 5%, and two traced runs of one seed agree on every count;
  * every printed metric is named in BENCHMARK.json with the same unit;
  * a malformed seed exits 2, like bench::parse_seed.
Takes about two minutes on a 4-core host.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build entry point)

WORKLOADS = run.WORKLOADS
SEED = "42"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class ScenarioBenchTest(unittest.TestCase):
    binary = None
    _cache = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def drive(self, *args):
        proc = subprocess.run([self.binary, *args], capture_output=True,
                              text=True, cwd=ROOT, timeout=600)
        return proc

    def result(self, workload, trace):
        key = (workload, trace)
        if key not in self._cache:
            proc = self.drive("--workload", workload, "--seed", SEED,
                              "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self._cache[key] = proc.stdout
        return self._cache[key]

    @staticmethod
    def last_json(stdout):
        return json.loads(stdout.strip().splitlines()[-1])

    def test_digest_is_thread_count_invariant(self):
        for workload in WORKLOADS:
            digests = set()
            for workers in ("1", "2", "4"):
                proc = self.drive("--workload", workload, "--seed", SEED,
                                  "--digest-only", "--workers", workers)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                line = [l for l in proc.stdout.splitlines()
                        if l.startswith("digest ")][0]
                digests.add(line.split()[-1])
            self.assertEqual(len(digests), 1, (workload, digests))

    def test_ledger_adds_up_to_traced_wall(self):
        for workload in WORKLOADS:
            out = self.result(workload, "1")
            m = re.search(r"work \+ self rows sum to ([0-9.e+-]+) s of a "
                          r"([0-9.e+-]+) s traced wall", out)
            self.assertIsNotNone(m, out)
            rows, wall = float(m.group(1)), float(m.group(2))
            self.assertGreater(wall, 0.0)
            self.assertLess(abs(rows / wall - 1.0), 0.05, (workload, rows, wall))

    def test_counts_repeat_across_traced_runs(self):
        for workload in WORKLOADS:
            first = self.last_json(self.result(workload, "1"))
            proc = self.drive("--workload", workload, "--seed", SEED,
                              "--seconds", "1", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            again = self.last_json(proc.stdout)
            for name, metric in first["metrics"].items():
                if metric["unit"] == "count":
                    self.assertEqual(metric["value"],
                                     again["metrics"][name]["value"],
                                     (workload, name))

    def test_printed_metrics_are_declared(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            declared = units(kind)
            for workload in WORKLOADS:
                out = self.result(workload, trace)
                res = self.last_json(out)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), set(declared), workload)
                printed = re.findall(r"^metric (\S+) = \S+ (\S+)$", out, re.M)
                self.assertEqual(len(printed), len(declared))
                for name, unit in printed:
                    self.assertEqual(declared.get(name), unit, name)
                    self.assertEqual(res["metrics"][name]["unit"], unit)
                if trace == "0":
                    for name, metric in res["metrics"].items():
                        self.assertNotEqual(metric["value"], 0, (workload, name))

    def test_malformed_seed_exits_2(self):
        for seed in ("-1", "abc", "12x", ""):
            proc = self.drive("--workload", "loc_stream", "--seed", seed,
                              "--seconds", "1", "--trace", "0")
            self.assertEqual(proc.returncode, 2, seed)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 "loc_stream", "--seed", seed, "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            self.assertEqual(proc.returncode, 2, seed)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
