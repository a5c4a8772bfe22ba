#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and reports, per workload and
end-to-end metric, the median and the spread (first-to-third quartile
distance over the median, as statistics.quantiles(values, n=4) gives
them) next to the metric's bound in BENCHMARK.json. Run from the
repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Each run's last two stdout lines are appended to --out as one JSON object
per line, so a sweep can be re-analysed with --analyse FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(spec, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "error": proc.returncode}
    return {"workload": workload, "seed": seed,
            "report": json.loads(lines[-2])["report"],
            "result": json.loads(lines[-1])}


def analyse(spec, records):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        good = [r for r in runs if "result" in r]
        failed = [r["result"]["failed"] for r in good]
        steal = [round(r["report"].get("cpu_steal_frac") or 0, 2)
                 for r in good]
        print(f"{workload}: {len(good)}/{len(runs)} runs, failed ops "
              f"{failed}, restarts "
              f"{[r['report']['restarts'] for r in good]}, all correct "
              f"{all(r['result']['correct'] for r in good)}, cpu steal "
              f"{steal}")
        if len(good) < 4:
            continue
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in good]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median if median else float("inf")
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif name != "setup_s" and spread > bound / 3:
                flag = "  over bound/3"
            print(f"  {name:16s} median {median:14.4f}  spread "
                  f"{spread:6.3f}  bound {bound}{flag}")
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--analyse", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.analyse:
        with open(args.analyse, encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        return 0 if analyse(spec, records) else 1
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    records = []
    for workload in workloads:
        for seed in seeds_of(args.seeds):
            record = run(spec, workload, seed, args.trace)
            records.append(record)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as f:
                    f.write(json.dumps(record) + "\n")
    return 0 if analyse(spec, records) else 1


if __name__ == "__main__":
    sys.exit(main())
