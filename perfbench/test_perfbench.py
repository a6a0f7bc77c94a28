#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Smoke runs of every workload at the tiny size check the result schema
against BENCHMARK.json; negative tests tamper with real measurement
output and show that each output check rejects it. Needs cmake and a C++
compiler (the first test builds the measurement program).
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py)

RUN_PY = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(*args):
    return subprocess.run([sys.executable, RUN_PY, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


class SchemaSmoke(unittest.TestCase):
    """Every workload runs at the tiny size and prints a well-formed result
    naming exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result

    def test_every_workload_both_phases(self):
        s = spec()
        self.assertEqual({w["name"] for w in s["workloads"]},
                         set(run.WORKLOADS))
        for w in run.WORKLOADS:
            for trace, declared in (("0", s["end_to_end"]),
                                    ("1", s["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    proc = bench("--workload", w, "--seed", "5",
                                 "--seconds", "0.2", "--trace", trace,
                                 "--size", "tiny")
                    result = self.check_result(proc, declared)
                    if trace == "0":
                        for m in result["metrics"].values():
                            self.assertGreater(m["value"], 0)

    def test_declared_metrics_match_the_runner(self):
        s = spec()
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in s["per_layer"]},
            run.PER_LAYER)

    def test_all_runs_every_workload(self):
        proc = bench("--all", "--seconds", "0.2", "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        for w in run.WORKLOADS:
            self.assertIn(w, proc.stdout)


class TamperedOutputsFail(unittest.TestCase):
    """A broken conservation law or a changed fingerprint fails its trial."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.docs = {w: run.drive(w, 9, 0.2, True, "tiny")
                    for w in run.WORKLOADS}

    def failed(self, doc):
        return run.check(doc)[1]

    def tampered(self, workload, variant, **changes):
        doc = copy.deepcopy(self.docs[workload])
        trial = next(t for t in doc["trials"] if t["variant"] == variant)
        for key, fn in changes.items():
            trial[key] = fn(trial[key])
        return doc

    def test_untouched_outputs_pass(self):
        for w, doc in self.docs.items():
            with self.subTest(workload=w):
                self.assertEqual(self.failed(doc), 0, run.check(doc)[2])

    def test_broken_conservation_fails(self):
        for w in ("replay_realcache", "e2e_sharded"):
            with self.subTest(workload=w):
                doc = self.tampered(w, "timed", db_fetches=lambda v: v + 1)
                self.assertEqual(self.failed(doc), 1)

    def test_lost_keys_fail(self):
        doc = self.tampered("replay_realcache", "timed",
                            keys=lambda v: v - 1)
        self.assertEqual(self.failed(doc), 1)

    def test_changed_fingerprint_fails(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                doc = self.tampered(w, "registry",
                                    fingerprint=lambda v: v ^ 1)
                self.assertEqual(self.failed(doc), 1)

    def test_k_invariance_witness_is_checked(self):
        doc = self.tampered("e2e_sharded", "k3", fingerprint=lambda v: v + 1)
        self.assertEqual(self.failed(doc), 1)

    def test_recorded_fingerprint_mismatch_fails(self):
        doc = self.docs["testbed_sweep"]
        trial = doc["trials"][1]
        self.assertEqual(run.trial_problems(doc, trial,
                                            trial["fingerprint"]), [])
        self.assertTrue(run.trial_problems(doc, trial,
                                           trial["fingerprint"] + 1))

    def test_saturated_server_fails(self):
        doc = self.tampered("e2e_sharded", "timed", util_max=lambda v: 1.0)
        self.assertEqual(self.failed(doc), 1)


class WithoutSources(unittest.TestCase):
    """Given only BENCHMARK.json and this directory, the benchmark exits
    nonzero without printing a result."""

    def test_exits_nonzero_without_printing_a_result(self):
        scratch = os.path.join(ROOT, ".bench_out", "bare_checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "testbed_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
