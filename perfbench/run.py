#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload unison-paper --seed 1 \
        --seconds 10 --trace 0

Builds the simulator and the perfbench harness from source into
$CARGO_TARGET_DIR (default .bench_build) on first use, runs the
workload in a fresh scratch directory under .bench_run/, and prints the
harness's output: a `sim_digest <hex>` line, then as the last line the
result object {"correct", "attempted", "failed", "metrics"}. Exits
non-zero, without a result line, when the build or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("unison-paper", "dram-bound", "datacenter-256", "sweep-serve")
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("%s: %s" % (" ".join(cmd), e))
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("src/sim/system.hh", "tools/unison_sim.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("simulator sources missing (%s); run from a full checkout"
                % needed)
            return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        log("build failed")
        return 3

    # Relative paths keep the server's unix socket path short.
    work_rel = os.path.join(".bench_run", str(os.getpid()))
    work_abs = os.path.join(ROOT, work_rel)
    shutil.rmtree(work_abs, ignore_errors=True)
    os.makedirs(work_abs)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--unison-sim", os.path.join(build_dir, "unison_sim"),
           "--work-dir", work_rel]
    # Own process group, so the serve child goes down with it on any exit.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        out = b""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work_abs, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass

    if proc.returncode != 0:
        log("perfbench exited with %s" % proc.returncode)
        return 4
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("perfbench printed no result line")
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
