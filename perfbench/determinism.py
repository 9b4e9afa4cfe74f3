#!/usr/bin/env python3
"""Determinism self-check of the benchmark's exact counts.

    python3 perfbench/determinism.py [--seconds S] [workload ...]

For each workload (default: all), runs the traced benchmark twice with
one seed and once with another. The two same-seed runs must print the
same request-trace digest and bit-identical exact values (modeled cycles
per image where they are exact, ISS measurement counts, every
compiler.mcyc.* and nn.scalar_mac_frac.*); the other seed must print a
different trace digest. Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("cnn-closed", "mixed-overload", "paper-deploy")


def run(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False)
    digest, exact = None, None
    for line in p.stdout.splitlines():
        if line.startswith("trace_digest: "):
            digest = line.split(": ", 1)[1]
        elif line.startswith("exact: "):
            exact = json.loads(line.split(": ", 1)[1])
    if p.returncode != 0 or digest is None or exact is None:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {p.returncode})")
    return digest, exact


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        d1, e1 = run(wl, args.seed, args.seconds)
        d2, e2 = run(wl, args.seed, args.seconds)
        d3, _ = run(wl, args.seed + 1, args.seconds)
        same = d1 == d2 and e1 == e2
        differs = d3 != d1
        print(f"{wl}: same seed identical={same} ({len(e1)} exact values), "
              f"other seed changes trace={differs}")
        if not same:
            for k in sorted(set(e1) | set(e2)):
                if e1.get(k) != e2.get(k):
                    print(f"  {k}: {e1.get(k)} != {e2.get(k)}")
        ok = ok and same and differs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
