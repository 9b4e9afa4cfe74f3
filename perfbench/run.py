#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (the repository's
library in Release plus the benchmark program) under .bench_build/ on
first use, runs one workload, and relays its output: human-readable
diagnostics, counts and metrics, then one JSON result line. The exit code
is the benchmark's: 0 when every output matched its reference and every
gate held.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cnn-closed", "mixed-overload", "paper-deploy")
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (once) and build the benchmark; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        # reconfigure from scratch next time
        try:
            os.remove(os.path.join(BUILD, "CMakeCache.txt"))
        except OSError:
            pass
        return 1

    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--results-dir", os.path.join(BUILD, "results")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError, TypeError):
        ok = False
    if not ok:
        sys.stdout.write(stdout)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
