#!/usr/bin/env python3
"""Determinism test of the benchmark's frame stream and work counters.

For every workload, two runs with the default seed must print the same
frame-stream digest and identical work counters, with no failed frame,
and the held-out seed must give a different digest. Run from the root
of the repository:

    python3 perfbench/test_counts.py
"""

import json
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016
WORKLOADS = ["hit-relabel", "cold-portfolio", "session-churn"]


def counts(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--counts-only"],
        stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    failures = []
    for workload in WORKLOADS:
        first = counts(workload, DEFAULT_SEED)
        second = counts(workload, DEFAULT_SEED)
        held_out = counts(workload, HELD_OUT_SEED)
        if first["digest"] != second["digest"]:
            failures.append(f"{workload}: same seed, different digests")
        if first["counters"] != second["counters"]:
            diff = {k: (v, second["counters"].get(k))
                    for k, v in first["counters"].items()
                    if second["counters"].get(k) != v}
            failures.append(f"{workload}: same seed, different counters {diff}")
        if first["digest"] == held_out["digest"]:
            failures.append(f"{workload}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} give one digest")
        if first["failed"] or second["failed"] or held_out["failed"]:
            failures.append(f"{workload}: failed frames in the prefix")
        print(f"{workload}: digest {first['digest']}, "
              f"{sum(1 for v in first['counters'].values() if v)} non-zero counters")
    for failure in failures:
        print("FAIL " + failure)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
