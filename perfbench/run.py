#!/usr/bin/env python3
"""Control-loop-on benchmark: build the perfbench binary from source, then run it.

Usage (from the repository root):
    python3 perfbench/run.py --workload cart_sora --seed 1 --seconds 20 --trace 0

Workloads: cart_firm, cart_sora, planet_sora (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to stderr.

The binary is built with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset. Spans of traced runs
are written to .bench_out/.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.h")):
        fail(f"simulator sources not found under {ROOT}/src")
    binary = build()
    cmd = [binary, *sys.argv[1:],
           "--reference-dir", os.path.join(HERE, "reference"),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--source-rev", source_rev()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
