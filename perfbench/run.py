#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) in Release mode
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, forwards the binary's report and ends with its JSON result line.
Every invocation also appends one record with provenance (git SHA or source
digest, compiler, build type, nproc, seed) to <build dir>/results.jsonl;
records are appended, never overwritten.
"""
import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-ideal", "signal-fcat", "soak-store", "deploy-scale")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over src/ and perfbench/ — identifies the code measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("perfbench/CMakeLists.txt") and
            os.path.isfile("src/CMakeLists.txt")):
        fail("run from the root of a checkout holding src/ and perfbench/")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(build_root, "perfbench"))
    work_dir = os.path.join(build_root, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", "perfbench/expected_digests.txt",
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])

    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "provenance": provenance,
        "result": result,
    }
    with open(os.path.join(build_root, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
