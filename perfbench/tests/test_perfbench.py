#!/usr/bin/env python3
"""Tests of the control-loop-on benchmark.

Run from the repository root:
    python3 perfbench/tests/test_perfbench.py

They build the perfbench binary (as perfbench/run.py does) and check that
  - the traced run (15 s slices + read-only probes) simulates exactly what
    the untraced run simulates;
  - a different seed changes the fingerprint, so the check is not vacuous;
  - the stored reference fingerprints still reproduce;
  - the metric names printed are the names in BENCHMARK.json;
  - the environment overrides that change the program are refused.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py: the build step)

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def fingerprint(workload, seed, *extra):
    out = subprocess.run([BINARY, "--fingerprint", "--workload", workload,
                          "--seed", str(seed), *extra],
                         capture_output=True, text=True, check=True)
    return out.stdout


def bench(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, env=env)


def read_reference(name):
    with open(os.path.join(BENCH_DIR, "reference", name)) as f:
        return "".join(l for l in f if not l.startswith("#"))


class TracedRunDoesNotPerturb(unittest.TestCase):
    def test_cart_sora_full_length(self):
        self.assertEqual(fingerprint("cart_sora", 5),
                         fingerprint("cart_sora", 5, "--traced"))

    def test_planet_sora_prefix(self):
        # 40 sim-s: two control rounds over the 1000-service fleet.
        self.assertEqual(
            fingerprint("planet_sora", 5, "--sim-seconds", "40"),
            fingerprint("planet_sora", 5, "--sim-seconds", "40", "--traced"))


class Fingerprint(unittest.TestCase):
    def test_seed_changes_fingerprint(self):
        for workload in ("cart_firm", "cart_sora"):
            a = fingerprint(workload, 42, "--sim-seconds", "60")
            b = fingerprint(workload, 43, "--sim-seconds", "60")
            self.assertNotEqual(a, b, workload)

    def test_warmup_references_reproduce(self):
        for workload in ("cart_firm", "cart_sora", "planet_sora"):
            self.assertEqual(
                fingerprint(workload, 42, "--sim-seconds", "60"),
                read_reference(workload + ".warmup.txt"), workload)

    def test_cart_sora_full_reference_reproduces(self):
        got = fingerprint("cart_sora", 42)
        self.assertEqual(got, read_reference("cart_sora.txt"))
        # fig10's headline leg: goodput 1325.24 r/s, p99 429.5 ms.
        fields = dict(line.split(" ", 1) for line in got.splitlines())
        self.assertAlmostEqual(float(fields["summary.goodput_rps"]), 1325.24, 2)
        self.assertAlmostEqual(float(fields["summary.p99_ms"]), 429.5, 1)


class Output(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("cart_firm", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            if trace == 1:
                # FIRM runs its own localizer: one extraction per stored trace.
                self.assertEqual(
                    result["metrics"]["trace.cp_calls_per_trace"]["value"], 1)

    def test_program_overrides_are_refused(self):
        for var in ("SORA_SEED", "SORA_CTL_PORT", "SORA_LOG_LEVEL"):
            env = dict(os.environ, **{var: "1"})
            proc = bench("cart_firm", 0, env=env)
            self.assertNotEqual(proc.returncode, 0, var)
            self.assertNotIn('"metrics"', proc.stdout, var)
            self.assertIn(var, proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
