#!/usr/bin/env python3
"""Compare a fresh perf_engine JSON report against the committed
trajectory (BENCH_engine.json) and emit non-fatal warnings for >20%
throughput regressions.

Usage: perf_check.py BASELINE.json CURRENT.json

Exit status is always 0: CI perf numbers come from unpinned shared
runners, so a regression here is a signal to look, not a build
failure. Warnings use the GitHub Actions ::warning:: syntax so they
surface on the workflow summary.
"""

import json
import sys

THRESHOLD = 0.20


def rates(report):
    out = {}
    for entry in report.get("engine", []):
        out["engine/" + entry["design"]] = entry["accesses_per_sec"]
    if "replay" in report:
        out["replay"] = report["replay"]["accesses_per_sec"]
    # perf_engine/3 additions: the multiprogrammed mix on the serial
    # engine and the warm-checkpoint-reuse sweep with its cold control.
    if "mix_engine" in report:
        out["mix_engine"] = report["mix_engine"]["accesses_per_sec"]
    # perf_engine/4 addition: the same spec through both memory
    # backends. The fast/detailed throughputs are tracked separately,
    # and the ratio guards the detailed controller's relative cost.
    if "backend" in report:
        out["backend/fast"] = report["backend"]["fast_per_sec"]
        out["backend/detailed"] = report["backend"]["detailed_per_sec"]
    # perf_engine/5 addition: the datacenter-scale ycsb-kv arms, keyed
    # by core count. Only throughput is compared; the vm_rss_kb /
    # vm_hwm_kb fields are a whole-process proxy too noisy to gate on.
    for entry in report.get("datacenter", []):
        out["datacenter/c%d" % entry["cores"]] = entry[
            "accesses_per_sec"
        ]
    if "ckpt_sweep" in report:
        out["ckpt_sweep"] = report["ckpt_sweep"]["accesses_per_sec"]
    if "ckpt_cold" in report:
        out["ckpt_cold"] = report["ckpt_cold"]["accesses_per_sec"]
    if "sweep" in report:
        out["sweep"] = report["sweep"]["accesses_per_sec"]
    return out


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} BASELINE.json CURRENT.json")
        return 0
    try:
        with open(sys.argv[1]) as f:
            base = rates(json.load(f))
        with open(sys.argv[2]) as f:
            cur = rates(json.load(f))
    except (OSError, ValueError) as e:
        print(f"::warning::perf_check: cannot compare reports: {e}")
        return 0

    regressions = 0
    for key, base_rate in sorted(base.items()):
        cur_rate = cur.get(key)
        if cur_rate is None or base_rate <= 0:
            continue
        ratio = cur_rate / base_rate
        marker = ""
        if ratio < 1.0 - THRESHOLD:
            regressions += 1
            marker = "  <-- REGRESSION"
            print(
                f"::warning::perf_engine {key}: "
                f"{cur_rate:,.0f} acc/s vs committed "
                f"{base_rate:,.0f} ({ratio - 1.0:+.1%})"
            )
        print(
            f"{key:30s} committed {base_rate:14,.0f}  "
            f"current {cur_rate:14,.0f}  {ratio - 1.0:+7.1%}{marker}"
        )

    if regressions == 0:
        print("perf_check: no >20% regressions vs committed trajectory")
    else:
        print(
            f"perf_check: {regressions} measurement(s) regressed >20% "
            "(non-fatal; CI runners are unpinned)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
