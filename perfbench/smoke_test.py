#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds 1]

For every workload in BENCHMARK.json it runs perfbench/run.py once
untraced and once traced, with a short --seconds, and checks that:

  - each run exits 0 and ends with the result object, correct, with no
    failed operation;
  - the untraced run reports exactly the end_to_end metrics and the
    traced run exactly the per_layer metrics, with the declared units;
  - both runs print the same sim_digest, and a second untraced run
    with the same seed reproduces it;

and that run.py, copied with BENCHMARK.json alone into an empty
directory, exits non-zero without printing a result. Prints every
metric of every run with its unit; exits 1 on the first failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("smoke_test: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=900)


def result_of(done, what):
    if done.returncode != 0:
        fail("%s exited with %d" % (what, done.returncode))
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    digests = [l.split()[1] for l in lines if l.startswith("sim_digest ")]
    if len(digests) != 1:
        fail("%s printed no sim_digest line" % what)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: not correct (%d of %d failed)"
             % (what, result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % what)
    return result, digests[0]


def show(result, what):
    print("smoke_test: %s" % what)
    for name, m in result["metrics"].items():
        print("    %-36s %14.6g %s" % (name, m["value"], m["unit"]))


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail("%s: metrics %s, declared %s" % (what, got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (what, name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for w in bench["workloads"]:
        name = w["name"]
        plain, digest = result_of(run(name, 7, args.seconds, 0), name)
        check_metrics(plain, bench["end_to_end"], name)
        show(plain, name)
        for m in bench["end_to_end"]:
            if plain["metrics"][m["name"]]["value"] == 0:
                fail("%s: %s reads 0" % (name, m["name"]))
        traced, traced_digest = result_of(run(name, 7, args.seconds, 1),
                                          name + " traced")
        check_metrics(traced, bench["per_layer"], name + " traced")
        show(traced, name + " traced")
        if traced_digest != digest:
            fail("%s: traced sim_digest %s != untraced %s"
                 % (name, traced_digest, digest))
        _, again = result_of(run(name, 7, args.seconds, 0), name)
        if again != digest:
            fail("%s: same seed gave sim_digest %s, then %s"
                 % (name, digest, again))
        print("smoke_test: %s ok (sim_digest %s)" % (name, digest))

    scratch = os.path.join(ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bench["workloads"][0]["name"], 1, 1, 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            fail("run.py without the simulator sources did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print("smoke_test: all ok")


if __name__ == "__main__":
    main()
