#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]
                                [--against FILE]

Runs `perfbench/run.py` (untraced) once per seed and workload, seed-major,
so a host-noise episode hits every workload alike rather than all runs of
one. Prints each run's metrics with its host-noise indicators (steal time,
run-queue wait), then, per workload and end-to-end metric, the median and
the quartile spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. With --against, also compares each median with the one in
an earlier --out file and flags a move worse than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    noise = {}
    for line in lines:
        if line.startswith("  (steal_ms") or line.startswith("  (runq_wait_ms"):
            name, value = line.strip(" ()").split()[:2]
            noise[name] = float(value)
    result.update(exit=proc.returncode, seed=seed, noise=noise)
    return result


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=os.path.join(".bench_work", "spread.json"))
    parser.add_argument("--against")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in seeds(args.seeds):
        for w in workloads:
            r = run(w, seed, bench["run_seconds"])
            results[w].append(r)
            metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed} exit {r['exit']} correct {r['correct']} {metrics} "
                  f"steal_ms={r['noise'].get('steal_ms')} "
                  f"runq_wait_ms={r['noise'].get('runq_wait_ms')}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f)

    earlier = json.load(open(args.against)) if args.against else {}
    ok = all(r["exit"] == 0 and r["correct"] for rs in results.values() for r in rs)
    for w in workloads:
        print(f"== {w}")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results[w] if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            line = (f"  {name:<12} median {median:<12.6g} spread {spread:.4f} "
                    f"(bound {m['bound']}, a third {m['bound'] / 3:.4f})")
            if spread > m["bound"]:
                line += " SPREAD OVER BOUND"
                ok = False
            if w in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[w] if name in r["metrics"])
                worse = (median - before) / before
                if m["better"] == "higher":
                    worse = -worse
                line += f" vs earlier {before:.6g} ({worse:+.4f} worse)"
                if worse > m["bound"]:
                    line += " MEDIAN MOVED PAST BOUND"
                    ok = False
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
