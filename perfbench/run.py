#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The harness and the library are built with CMake into .bench_build/ at the
root of the checkout (Release). The run's last stdout line is its result
JSON; results and traced spans are also written to .bench_build/out/.
Exits non-zero, without a result, when the sources are missing or the
build or the run fails.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ("paper-grid", "scale-10k", "train-c")
# Every run must end within 180 s, or 900 s when it first builds the tree.
RUN_DEADLINE_S = 175.0
FIRST_BUILD_DEADLINE_S = 880.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness.

    Returns None on failure, else whether this was the first (configuring)
    build of the checkout.
    """
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources next to {HERE.name}/ (expected {ROOT}/src)")
        return None
    steps = []
    first = not (BUILD / "CMakeCache.txt").is_file()
    if first:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return first


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    first_build = build()
    if first_build is None:
        return 1
    binary = BUILD / "perfbench"
    if args.self_test:
        cmd = [str(binary), "--self-test"]
    else:
        cmd = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out", str(OUT), "--commit", source_id()]
    child = subprocess.Popen(cmd, cwd=ROOT)
    deadline = FIRST_BUILD_DEADLINE_S if first_build else RUN_DEADLINE_S
    budget = None if args.self_test else deadline - (time.monotonic() - start)
    try:
        code = child.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("the run did not finish in time; killed")
        return 1
    if code != 0:
        log(f"perfbench exited with {code}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
