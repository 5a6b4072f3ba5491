#!/usr/bin/env python3
"""Paired perf gate: this checkout against a base revision, on one host.

Usage (from anywhere inside the repository):
    python3 tools/perf_gate.py BASE_REV

BASE_REV is checked out into a temporary git worktree. For every workload in
BENCHMARK.json the gate runs each tree's own perfbench/run.py (--trace 0,
BENCHMARK.json's run_seconds) kPairs times per side, alternating which side
goes first, with the same seed on both sides of a pair. Each tree builds
into its own .bench_build/.

The workloads, the end-to-end metrics, their "better" direction and their
"bound" all come from BENCHMARK.json; the gate has no thresholds of its own.
Both sides run in the same job on the same host and perfbench calibrates
every slice, so nothing is stored between runs. The exit status is nonzero
when any run reports correct: false, when this checkout's share of failed
operations is larger than the base's, or when this checkout's median is
worse than the base's median by more than the metric's bound. stdout gets
one row per (metric, workload) pair; stderr gets one line per run with its
end-to-end values.

Beside the gated rows, stdout gets two informational rows per workload.
raw_wall_s has the base and HEAD medians of raw wall time: each run's median
over its "repeat N: run X s wall, Y s at nominal speed" lines.
calibration_scale has the medians of raw wall / nominal (X / Y) over the
same lines: how much slower than nominal the calibration kernel judged the
host. perfbench's run_s is calibrated against a kernel that shares the
workload's heap, so a change to the workload's allocation pattern can move
that ratio and run_s apart from raw wall time; these rows show whether it
did. They never gate.
"""
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

kPairs = 3
kFirstSeed = 101


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def decide(benchmark, base_runs, head_runs):
    """The gate's verdict on per-run results; no I/O.

    `base_runs` and `head_runs` map each workload name to the list of
    perfbench result objects ({"correct", "attempted", "failed", "metrics"})
    of that side. Returns (rows, failures): one row per (metric, workload)
    as (metric, workload, base median, head median, relative change, passed),
    and a list of human-readable reasons the gate fails (empty on a pass).
    """
    rows, failures = [], []
    for w in benchmark["workloads"]:
        name = w["name"]
        base, head = base_runs[name], head_runs[name]
        for side, runs in (("base", base), ("HEAD", head)):
            bad = sum(1 for r in runs if not r["correct"])
            if bad:
                failures.append(f"{name}: {bad} {side} run(s) printed correct: false")
        if failed_share(head) > failed_share(base):
            failures.append(f"{name}: failed share {failed_share(head):.4g} "
                            f"> base {failed_share(base):.4g}")
        for m in benchmark["end_to_end"]:
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in base)
            h = statistics.median(r["metrics"][m["name"]]["value"] for r in head)
            change = (h - b) / b
            worse = change if m["better"] == "lower" else -change
            passed = worse <= m["bound"]
            if not passed:
                failures.append(f"{m['name']} on {name}: {change:+.1%} "
                                f"(bound {m['bound']:.0%}, better {m['better']})")
            rows.append((m["name"], name, b, h, change, passed))
    return rows, failures


REPEAT_LINE = re.compile(
    r"^\s*repeat \d+: run (\S+) s wall, (\S+) s at nominal speed", re.M)


def raw_wall_s(stdout):
    """Median raw wall time over one perfbench run's repeat lines, or None."""
    walls = [float(m.group(1)) for m in REPEAT_LINE.finditer(stdout)]
    return statistics.median(walls) if walls else None


def calibration_scale(stdout):
    """Median of raw wall / nominal over one perfbench run's repeat lines,
    or None."""
    scales = [float(m.group(1)) / float(m.group(2))
              for m in REPEAT_LINE.finditer(stdout) if float(m.group(2)) > 0]
    return statistics.median(scales) if scales else None


INFO_KEYS = ("raw_wall_s", "calibration_scale")


def info_rows(benchmark, base_runs, head_runs):
    """Informational rows (passed None) of each side's median of every
    INFO_KEYS value; a workload where any run lacks a value gets no row for
    that key."""
    rows = []
    for key in INFO_KEYS:
        for w in benchmark["workloads"]:
            name = w["name"]
            values = [[r.get(key) for r in runs[name]]
                      for runs in (base_runs, head_runs)]
            if any(v is None for side in values for v in side):
                continue
            b, h = (statistics.median(side) for side in values)
            rows.append((key, name, b, h, (h - b) / b, None))
    return rows


def format_table(rows):
    out = ["| metric | workload | base median | HEAD median | change | verdict |",
           "|---|---|---|---|---|---|"]
    for metric, workload, b, h, change, passed in rows:
        verdict = "info" if passed is None else "PASS" if passed else "FAIL"
        out.append(f"| {metric} | {workload} | {b:.6g} | {h:.6g} | "
                   f"{change:+.1%} | {verdict} |")
    return "\n".join(out)


def run_perfbench(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` in `tree`: its final JSON object,
    with the run's raw wall time and calibration scale added as
    "raw_wall_s" and "calibration_scale"."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"perf_gate: perfbench in {tree} printed no result "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["raw_wall_s"] = raw_wall_s(proc.stdout)
    result["calibration_scale"] = calibration_scale(proc.stdout)
    return result


def measure(benchmark, base_tree, head_tree):
    seconds = benchmark["run_seconds"]
    base_runs, head_runs = {}, {}
    for w in benchmark["workloads"]:
        name = w["name"]
        base_runs[name], head_runs[name] = [], []
        for pair in range(kPairs):
            seed = kFirstSeed + pair
            sides = [("base", base_tree, base_runs), ("HEAD", head_tree, head_runs)]
            for label, tree, runs in sides if pair % 2 == 0 else sides[::-1]:
                r = run_perfbench(tree, name, seed, seconds)
                runs[name].append(r)
                values = " ".join(f"{m['name']} {r['metrics'][m['name']]['value']:.4g}"
                                  for m in benchmark["end_to_end"])
                print(f"perf_gate: {name} seed {seed} {label}: correct "
                      f"{str(r['correct']).lower()} {values}",
                      file=sys.stderr, flush=True)
    return base_runs, head_runs


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base_rev = argv[1]
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          base_rev + "^{commit}"],
                         capture_output=True, text=True)
    if sha.returncode:
        sys.exit(f"perf_gate: unknown revision {base_rev}")
    benchmark = load_benchmark()
    with tempfile.TemporaryDirectory(prefix="perf_gate_") as tmp:
        base_tree = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        "--quiet", base_tree, sha.stdout.strip()], check=True)
        try:
            base_runs, head_runs = measure(benchmark, base_tree, ROOT)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            base_tree])
    rows, failures = decide(benchmark, base_runs, head_runs)
    print(f"perf gate: HEAD vs {base_rev} ({sha.stdout.strip()[:12]}), "
          f"{kPairs} pairs per workload, run_seconds {benchmark['run_seconds']}")
    print(format_table(rows + info_rows(benchmark, base_runs, head_runs)))
    for f in failures:
        print("FAIL " + f)
    print("gate: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
