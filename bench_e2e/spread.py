#!/usr/bin/env python3
"""Runs bench_e2e over several seeds and reports each metric's spread.

Run from the root of the checkout, e.g.

  python3 bench_e2e/spread.py --seeds 1-10 --seconds 20
  python3 bench_e2e/spread.py --workloads scan_flat --seeds 1,1 --out x.json

For every (workload, metric) it prints the median and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. A spread above a third of the metric's bound in
BENCHMARK.json is marked "!" (the benchmark is meant to repeat well inside
its own bounds). --out writes every run's result and detail line plus the
summary as one JSON document. With --trace 1 --baseline FILE (an untraced
--out file) it also reports each workload's tracing overhead: the traced
runs' median trace.ttk_p50_ms over the baseline's median ttk_p50_ms, minus
one. A failing run is reported and skipped; the script then exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tcp_short", "tcp_mixed", "scan_flat", "dist_local"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {done.returncode})")
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def summarize(runs, bounds):
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        metrics = {}
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            median = statistics.median(values)
            entry = {"median": median, "values": values}
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["spread"] = (q3 - q1) / median
            metrics[name] = entry
        summary[workload] = metrics
    for workload, metrics in summary.items():
        print(f"== {workload}")
        for name, entry in metrics.items():
            spread = entry.get("spread")
            bound = bounds.get(name)
            flag = ""
            if spread is not None and bound is not None and spread > bound / 3:
                flag = "  ! above a third of its bound " + str(bound)
            shown = "" if spread is None else f"  spread {spread:.3f}"
            print(f"  {name:40s} median {entry['median']:.6g}{shown}{flag}")
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    bench = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    seconds = args.seconds or bench.get("run_seconds", 10)
    runs = []
    failures = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            try:
                runs.append(run_once(workload, seed, seconds, args.trace))
                print(f"ran {workload} seed {seed}", file=sys.stderr)
            except RuntimeError as failure:
                failures.append(str(failure))
                print(failure, file=sys.stderr)
    summary = summarize(runs, bounds)
    overhead = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["summary"]
        for workload, metrics in summary.items():
            if "trace.ttk_p50_ms" in metrics and workload in baseline:
                untraced = baseline[workload]["ttk_p50_ms"]["median"]
                traced = metrics["trace.ttk_p50_ms"]["median"]
                overhead[workload] = traced / untraced - 1.0
                print(f"tracing overhead on {workload}: "
                      f"{overhead[workload]:+.3f} of ttk_p50_ms")
    if args.out:
        with open(args.out, "w") as f:
            doc = {"seconds": seconds, "trace": args.trace, "runs": runs,
                   "failures": failures, "summary": summary}
            if overhead:
                doc["tracing_overhead"] = overhead
            json.dump(doc, f, indent=1)
            f.write("\n")
    for failure in failures:
        print("FAILED: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
