#!/usr/bin/env python3
"""Steadiness evidence for the bounds in BENCHMARK.json.

Run one workload N times, one seed each, and print every metric's median,
quartiles and spread (interquartile distance as a share of the median):

    python3 perfbench/steadiness.py run --workload stream-zipf --runs 10 \
        --out zipf-a.json

Compare two such sets: each metric's median shift in its worse direction,
as a share of the first median, against the metric's bound, and the share
of failed operations:

    python3 perfbench/steadiness.py compare zipf-a.json zipf-b.json

Run from the root of the source tree. A spread above a third of the bound
(setup_s excepted) or a median shift above the bound is flagged; the exit
status is 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_specs(trace):
    bench = spec()
    return bench["per_layer" if trace == "1" else "end_to_end"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_set(args):
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed_base + i
        command = ["python3", os.path.join(BENCH_DIR, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(command, cwd=os.getcwd(), capture_output=True,
                              text=True)
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
            provenance = json.loads(lines[-2])["provenance"]
        except (IndexError, KeyError, ValueError):
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: no result (exit {proc.returncode})")
            return 1
        runs.append({"seed": seed, "exit": proc.returncode,
                     "provenance": provenance, "result": result})
        values = ", ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{values}", flush=True)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": seconds, "runs": runs}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    return report(record)


def failed_share(record):
    shares = {r["result"]["failed"] / r["result"]["attempted"]
              for r in record["runs"]}
    return shares


def report(record):
    flagged = False
    if not all(r["result"]["correct"] for r in record["runs"]):
        print("FLAG: a run reported correct=false")
        flagged = True
    shares = failed_share(record)
    print(f"failed share per run: {sorted(shares)}")
    if len(shares) != 1:
        print("FLAG: the failed share differs between runs")
        flagged = True
    print(f"{'metric':40} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for m in metric_specs(record["trace"]):
        values = [r["result"]["metrics"][m["name"]]["value"]
                  for r in record["runs"]]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("inf")
        limit = m.get("bound")
        mark = ""
        if limit is not None and m["name"] != "setup_s" and spread > limit / 3:
            mark = "  FLAG"
            flagged = True
        print(f"{m['name']:40} {q1:12.6g} {median:12.6g} {q3:12.6g} "
              f"{spread:8.4f} "
              f"{(limit / 3 if limit is not None else float('nan')):8.4f}"
              f"{mark}")
    return 1 if flagged else 0


def compare(args):
    with open(args.first) as handle:
        first = json.load(handle)
    with open(args.second) as handle:
        second = json.load(handle)
    flagged = False
    a, b = failed_share(first), failed_share(second)
    print(f"failed share: first {sorted(a)}, second {sorted(b)}")
    if a != b:
        print("FLAG: failed shares differ")
        flagged = True
    print(f"{'metric':40} {'median 1':>12} {'median 2':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for m in metric_specs(first["trace"]):
        med = []
        for record in (first, second):
            med.append(statistics.median(
                r["result"]["metrics"][m["name"]]["value"]
                for r in record["runs"]))
        if m["better"] == "lower":
            worse = (med[1] - med[0]) / med[0]
        else:
            worse = (med[0] - med[1]) / med[0]
        bound = m.get("bound")
        mark = ""
        if bound is not None and worse > bound:
            mark = "  FLAG"
            flagged = True
        print(f"{m['name']:40} {med[0]:12.6g} {med[1]:12.6g} {worse:9.4f} "
              f"{bound if bound is not None else '-':>6}{mark}")
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload N times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1)
    run.add_argument("--seconds", type=float, default=0.0,
                     help="run length (default: run_seconds)")
    run.add_argument("--trace", default="0", choices=("0", "1"))
    run.add_argument("--out", default="")
    cmp_ = sub.add_parser("compare", help="compare two sets of runs")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    return run_set(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
