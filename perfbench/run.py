#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload uniform-4tj --seed 1 --seconds 20 --trace 0

Every argument is passed to the perfbench binary (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root; build output goes to stderr so the binary's last
stdout line, one JSON object, stays the last line of this script's output.
Traced runs (--trace 1) write their spans to .bench_build/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ (run from a full "
             "checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail("cannot run %s: %s" % (step[0], err))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def main(argv):
    out_dir = os.path.join(build_dir(), "perfbench")
    binary = build(out_dir)
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + argv + ["--trace-dir", trace_dir])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
