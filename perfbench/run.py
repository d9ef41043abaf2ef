#!/usr/bin/env python3
"""Run one benchmark workload of the anmat library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the harness in
`perfbench/harness` (into $CARGO_TARGET_DIR, default `.bench_build`),
generates the workload's inputs from the seed in a process of their own,
then measures them in fresh processes:

* --trace 0: SETUP_RUNS set-up-only processes and one full run, all
  untraced. Prints every end-to-end metric; `setup_s` is the median of
  the set-up times.
* --trace 1: one untraced and one traced full run. Prints every per-layer
  metric; `trace.overhead_pct` compares the closed-loop phase of the two.

Every line but the last is for people: metrics by name and unit, the
paced phase's sample count and backlog, the harness's own input bytes, and
host-noise indicators (steal time and run-queue wait). The last line is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. The exit code is 0 only if every run passed its correctness
gate with no failed op; if one did not, the result line still comes, with
every op of the full run counted as failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["audit", "append", "churn", "expire", "append_x2"]
SETUP_RUNS = 2
# Each measured process must end well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the harness into $CARGO_TARGET_DIR; return the binary's path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the harness failed")
    return os.path.join(target, "release", "perfbench")


def generate(binary, args):
    """Write the seed's inputs into `args.inputs` in a process of their own."""
    shutil.rmtree(args.inputs, ignore_errors=True)
    gen = [binary, "gen", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", args.inputs]
    try:
        ok = subprocess.run(gen, timeout=PROCESS_TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        ok = False
    if not ok:
        fail("generating inputs failed")


def measure(binary, args, extra):
    """Run one measured process; return its result line, or a failed result
    if it printed none (a crash or a timeout)."""
    cmd = [binary, "run", "--workload", args.workload, "--inputs", args.inputs,
           "--seconds", str(args.seconds)] + extra
    result, error = None, f"no result within {PROCESS_TIMEOUT_S} s"
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        error = f"exit {proc.returncode} without a result line"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        pass
    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}, "info": {}, "error": error}
    if not passed(result):
        print(f"FAILED: {result['error']}")
    return result


def passed(result):
    return result["correct"] and not result["failed"]


def value(result, name):
    entry = result["metrics"].get(name) or result["info"].get(name)
    return entry["value"]


def measure_all(binary, args):
    """The workload's measured processes, the full run last."""
    if args.trace:
        return [measure(binary, args, ["--trace", "0"]),
                measure(binary, args, ["--trace", "1"])]
    setups = [measure(binary, args, ["--trace", "0", "--setup-only"])
              for _ in range(SETUP_RUNS)]
    return setups + [measure(binary, args, ["--trace", "0"])]


def report(args, runs):
    """Print the runs' metrics and the result line; return the exit code.

    The full run's metrics, with `setup_s` the median over every run
    (trace 0) or `trace.overhead_pct` from the untraced/traced pair
    (trace 1). If any run failed, every op of the full run counts as
    failed and the metrics are left as the full run reported them."""
    result = runs[-1]
    correct = all(passed(r) for r in runs)
    if correct and args.trace:
        untraced, traced = (value(r, "closed_wall_s") for r in runs)
        result["metrics"]["trace.overhead_pct"] = {
            "value": (traced / untraced - 1.0) * 100.0, "unit": "%"}
    elif correct:
        result["metrics"]["setup_s"]["value"] = statistics.median(
            value(r, "setup_s") for r in runs)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: {'correct' if correct else 'FAILED'}")
    for name, m in result["metrics"].items():
        print(f"  {name:<24} {m['value']:>16.6f} {m['unit']}")
    for name, m in result["info"].items():
        print(f"  ({name:<22} {m['value']:>16.6f} {m['unit']})")
    attempted = max(r["attempted"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    args.inputs = os.path.join(os.getcwd(), ".bench_work", f"{args.workload}-{args.seed}")
    try:
        generate(binary, args)
        runs = measure_all(binary, args)
    finally:
        shutil.rmtree(args.inputs, ignore_errors=True)
    sys.exit(report(args, runs))


if __name__ == "__main__":
    main()
