#!/usr/bin/env python3
"""Tests of the perf gate's decision (tools/perf_gate.py `decide`) and of its
informational raw wall time and calibration scale rows.

Run from anywhere:
    python3 tools/test_perf_gate.py

They feed synthetic perfbench results through the gate's pure decision
function, with the repository's own BENCHMARK.json, and check that the gate
reads each metric's direction and bound from that file instead of assuming
them.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_gate  # noqa: E402

BENCHMARK = perf_gate.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
NOMINAL = {"run_s": 2.0, "setup_s": 0.0003, "peak_rss_mb": 270.0,
           "sim_goodput_rps": 690.0}


def result(scale=None, correct=True, attempted=1000, failed=0):
    """One perfbench result object; `scale` multiplies the named metrics."""
    scale = scale or {}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": NOMINAL[m["name"]] *
                                    scale.get(m["name"], 1.0),
                                    "unit": m["unit"]}
                        for m in BENCHMARK["end_to_end"]}}


def runs(**kwargs):
    return {w: [result(**kwargs) for _ in range(perf_gate.kPairs)]
            for w in WORKLOADS}


def verdict(base, head):
    return perf_gate.decide(BENCHMARK, base, head)


class GateDecision(unittest.TestCase):
    def test_equal_medians_pass(self):
        rows, failures = verdict(runs(), runs())
        self.assertEqual(failures, [])
        self.assertTrue(all(r[5] for r in rows))

    def test_run_s_regression_around_the_bound(self):
        bound = BOUNDS["run_s"]
        _, failures = verdict(runs(), runs(scale={"run_s": 1 + bound + 0.01}))
        self.assertEqual(len(failures), len(WORKLOADS))
        self.assertTrue(all(f.startswith("run_s on ") for f in failures))
        _, failures = verdict(runs(), runs(scale={"run_s": 1 + bound - 0.01}))
        self.assertEqual(failures, [])

    def test_higher_is_better_metric_fails_when_it_drops(self):
        bound = BOUNDS["sim_goodput_rps"]
        _, failures = verdict(
            runs(), runs(scale={"sim_goodput_rps": 1 - bound - 0.01}))
        self.assertEqual(len(failures), len(WORKLOADS))
        self.assertTrue(all(f.startswith("sim_goodput_rps on ")
                            for f in failures))
        # The same rise is an improvement, not a regression.
        _, failures = verdict(
            runs(), runs(scale={"sim_goodput_rps": 1 + bound + 0.5}))
        self.assertEqual(failures, [])

    def test_one_incorrect_run_fails(self):
        head = runs()
        head[WORKLOADS[0]][1] = result(correct=False)
        _, failures = verdict(runs(), head)
        self.assertEqual(len(failures), 1)
        self.assertIn("correct: false", failures[0])

    def test_higher_failed_share_fails(self):
        head = runs()
        head[WORKLOADS[-1]][0]["failed"] = 1
        _, failures = verdict(runs(), head)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_checks_exactly_the_benchmark_metrics(self):
        rows, _ = verdict(runs(), runs())
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        self.assertEqual(sorted({r[0] for r in rows}), sorted(names))
        self.assertEqual(len(rows), len(names) * len(WORKLOADS))


class RawWallReport(unittest.TestCase):
    STDOUT = ("perfbench: cart_sora seed 101\n"
              "  repeat 1: run 2.5 s wall, 2.4 s at nominal speed\n"
              "  repeat 2: run 2.25 s wall, 2.2 s at nominal speed\n"
              "  repeat 3: run 3 s wall, 2.9 s at nominal speed\n"
              "reps 3, setups 101; simulated: p50 20 ms\n")

    def test_parses_the_median_of_the_repeat_lines(self):
        self.assertEqual(perf_gate.raw_wall_s(self.STDOUT), 2.5)
        self.assertIsNone(perf_gate.raw_wall_s("reps 0, setups 0\n"))

    def test_parses_the_median_calibration_scale(self):
        # Ratios 2.5/2.4, 2.25/2.2 and 3/2.9: the median is 3/2.9, not the
        # ratio of the median wall to the median nominal time.
        self.assertAlmostEqual(perf_gate.calibration_scale(self.STDOUT),
                               3 / 2.9)
        self.assertIsNone(perf_gate.calibration_scale("reps 0, setups 0\n"))

    def test_rows_are_informational_and_never_gate(self):
        # run_s 10% better while raw wall is 50% worse and the calibration
        # scale drops 25%: the calibration trap, reported but not gated.
        base, head = runs(), runs(scale={"run_s": 0.9})
        for side, wall, cal in ((base, 2.0, 1.6), (head, 3.0, 1.2)):
            for results in side.values():
                for r in results:
                    r["raw_wall_s"] = wall
                    r["calibration_scale"] = cal
        rows = perf_gate.info_rows(BENCHMARK, base, head)
        self.assertEqual([(r[0], r[1]) for r in rows],
                         [(k, w) for k in perf_gate.INFO_KEYS
                          for w in WORKLOADS])
        for key, _, b, h, change, passed in rows:
            self.assertIsNone(passed)
            if key == "raw_wall_s":
                self.assertEqual((b, h), (2.0, 3.0))
            else:
                self.assertEqual((b, h), (1.6, 1.2))
                self.assertAlmostEqual(change, -0.25)
        self.assertIn("| info |", perf_gate.format_table(rows))
        self.assertNotIn("FAIL", perf_gate.format_table(rows))
        _, failures = verdict(base, head)
        self.assertEqual(failures, [])
        # A run that printed no repeat line drops its workload's rows.
        head[WORKLOADS[0]][0]["raw_wall_s"] = None
        head[WORKLOADS[0]][0]["calibration_scale"] = None
        rows = perf_gate.info_rows(BENCHMARK, base, head)
        self.assertEqual([r[1] for r in rows], WORKLOADS[1:] * 2)


if __name__ == "__main__":
    unittest.main()
