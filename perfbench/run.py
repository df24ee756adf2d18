#!/usr/bin/env python3
"""Build and run one SSTD benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first call configures and builds
perfbench/ (Release) into $CARGO_TARGET_DIR or .bench_build; later calls
only re-check the build. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the line before it
gives the run's provenance (source revision, build type, nproc, seed,
workload size). Each result is also stored under <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("stream-zipf", "stream-uniform-durable", "batch-boston")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; leave the rest to the build check.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_revision():
    """Git commit when the tree is a checkout, else 'unknown', plus a
    digest of every source file the benchmark builds from."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return sha or "unknown", digest.hexdigest()[:16]


def build(build_dir):
    binary = os.path.join(build_dir, "sstd_perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        log(f"configuring {build_dir}")
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    started = time.monotonic()
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    log(f"build checked in {time.monotonic() - started:.1f} s")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", default="",
                        help="corrupt one checked output (checker self-test)")
    parser.add_argument("--workers", default="",
                        help="worker pool size, 1 to 3 (default 3)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SSTD sources under {ROOT}/src; nothing to benchmark")
        return 2
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    sha, digest = source_revision()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(out_root, "work")]
    if args.inject:
        command += ["--inject", args.inject]
    if args.workers:
        command += ["--workers", args.workers]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    for line in lines[:-2]:
        print(line, file=sys.stderr)
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log(f"no result from {binary} (exit {proc.returncode})")
        return 1

    provenance.update({"git_sha": sha, "source_digest": digest})
    record = {"provenance": provenance, "result": result,
              "exit": proc.returncode}
    results_dir = os.path.join(out_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(os.path.join(results_dir, name), "w") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
