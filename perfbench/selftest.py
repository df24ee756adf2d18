#!/usr/bin/env python3
"""Checker self-test: every correctness check of the benchmark can fail.

For each workload, one clean run must pass; then each check's output is
corrupted in turn (run.py --inject) and the run must report
correct=false and exit non-zero:

    shard-decision      one recorded stream-zipf shard decision flipped
                        before the sequential-engine comparison
    recovered-estimate  one estimate after recover() flipped
    batch-row           one DistributedSstd cell flipped before the
                        SstdBatch comparison
    degraded            one claim counted as degraded
    truth               the latent truth inverted in the accuracy check
    report-count        one report more counted as generated
    provenance          the latest provenance record read as its opposite
    thread-cap          the pool cap lowered below the pool size

    python3 perfbench/selftest.py [--seconds 1]

Run from the root of the source tree. Exit status 1 when any case does
not behave as required.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

CASES = {
    "stream-zipf": ["shard-decision", "truth", "report-count", "provenance",
                    "thread-cap"],
    "stream-uniform-durable": ["recovered-estimate", "truth", "report-count",
                               "thread-cap"],
    "batch-boston": ["batch-row", "degraded", "truth", "thread-cap"],
}


def run(workload, seconds, inject):
    command = ["python3", os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        correct = json.loads(lines[-1])["correct"]
    except (IndexError, KeyError, ValueError):
        correct = None
    failures = [l for l in proc.stderr.splitlines()
                if l.startswith("CHECK FAILED")]
    return proc.returncode, correct, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    bad = 0
    for workload, injects in CASES.items():
        code, correct, failures = run(workload, args.seconds, "")
        ok = code == 0 and correct is True
        bad += not ok
        print(f"{workload:24} {'clean':20} exit={code} correct={correct} "
              f"{'ok' if ok else 'WRONG: clean run must pass'}", flush=True)
        for inject in injects:
            code, correct, failures = run(workload, args.seconds, inject)
            ok = code != 0 and correct is False
            bad += not ok
            detail = failures[0] if failures else ""
            print(f"{workload:24} {inject:20} exit={code} correct={correct} "
                  f"{'ok' if ok else 'WRONG: check did not fire'}  {detail}",
                  flush=True)
    print("self-test passed" if bad == 0 else f"{bad} cases wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
