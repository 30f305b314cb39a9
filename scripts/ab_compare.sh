#!/usr/bin/env bash
# Paired A/B run of the repository benchmark on two checkouts.
#
# Usage:
#   scripts/ab_compare.sh BASE CHANGE WORKLOAD PAIRS SECONDS SEED
#
# Runs `python3 perfbench/run.py --trace 0` in checkout BASE and in
# checkout CHANGE, alternating, PAIRS times, and flips which side runs
# first on every pair, so a slow drift of the host hits both sides
# alike. Each side builds into its own CARGO_TARGET_DIR, the
# checkout's .bench_build/; a short untimed run per side does the
# build before the first pair.
#
# Prints every pair, then per end-to-end metric (the names and the
# better direction come from CHANGE's BENCHMARK.json) each side's
# median and quartiles, the parent's IQR, and how many pairs the
# change won. Exits 1 if a run fails or any pair's sim_digest differs
# between the sides; the raw outputs are kept in a temporary directory
# named on stderr.
set -euo pipefail

usage="usage: ab_compare.sh BASE CHANGE WORKLOAD PAIRS SECONDS SEED"
[ $# -eq 6 ] || { echo "$usage" >&2; exit 2; }
base="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seconds="$5"
seed="$6"
[ "$base" != "$change" ] || { echo "BASE and CHANGE are one checkout" >&2; exit 2; }

target_base="$base/.bench_build"
target_change="$change/.bench_build"

out="$(mktemp -d)"
echo "ab_compare: raw outputs in $out" >&2

run_side() { # side checkout target seconds outfile
    if ! (cd "$2" && CARGO_TARGET_DIR="$3" python3 perfbench/run.py \
              --workload "$workload" --seed "$seed" --seconds "$4" \
              --trace 0 > "$5" 2> "$5.err"); then
        tail -20 "$5.err" >&2
        echo "ab_compare: $1 run failed (output in $5)" >&2
        exit 1
    fi
}

run_side base "$base" "$target_base" 1 "$out/build_base.txt"
run_side change "$change" "$target_change" 1 "$out/build_change.txt"

for ((p = 1; p <= pairs; ++p)); do
    if ((p % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do
        if [ "$side" = base ]; then
            run_side base "$base" "$target_base" "$seconds" "$out/$p.base"
        else
            run_side change "$change" "$target_change" "$seconds" \
                "$out/$p.change"
        fi
    done
    echo "$order" > "$out/$p.order"
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

out, pairs, bench, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
metrics = json.load(open(bench))["end_to_end"]


def load(path):
    lines = open(path).read().split("\n")
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    result = json.loads([l for l in lines if l.strip()][-1])
    return digest, {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


runs = {"base": [], "change": []}
bad_digest = 0
print("workload %s, %d pairs" % (workload, pairs))
for p in range(1, pairs + 1):
    order = open("%s/%d.order" % (out, p)).read().split()
    db, mb = load("%s/%d.base" % (out, p))
    dc, mc = load("%s/%d.change" % (out, p))
    runs["base"].append(mb)
    runs["change"].append(mc)
    same = db == dc
    bad_digest += not same
    cells = " ".join("%s=%.4g/%.4g" % (m["name"], mb.get(m["name"], float("nan")),
                                       mc.get(m["name"], float("nan")))
                     for m in metrics)
    print("pair %2d (%s first) digest %s %s  base/change: %s"
          % (p, order[0], db, "same" if same else "DIFFERS " + dc, cells))

print()
print("%-14s %12s %12s %12s %12s %12s %12s %8s %7s"
      % ("metric", "base q1", "base med", "base q3", "change q1",
         "change med", "change q3", "ratio", "won"))
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    b = [r[name] for r in runs["base"] if r.get(name) is not None]
    c = [r[name] for r in runs["change"] if r.get(name) is not None]
    if not b or not c:
        print("%-14s (not reported)" % name)
        continue
    bq, cq = quartiles(b), quartiles(c)
    won = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    print("%-14s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %4d/%d"
          % (name, bq[0], bq[1], bq[2], cq[0], cq[1], cq[2], ratio, won,
             len(b)))
    print("%-14s   base IQR %.5g, median shift %+.5g (%s is better)"
          % ("", bq[2] - bq[0], cq[1] - bq[1], m["better"]))

if bad_digest:
    print("\nFAIL: sim_digest differs in %d pair(s)" % bad_digest)
    sys.exit(1)
EOF
