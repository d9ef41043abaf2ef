#!/usr/bin/env python3
"""Self-check of `run.py`'s result line, on a short `append` workload.

    python3 perfbench/check_run.py

Run from the repository root. Feeds run.py's measuring and reporting
steps three sets of inputs, untraced and traced:

* intact inputs: exit code 0, `correct`, no failed op, and exactly the
  metrics BENCHMARK.json lists for the mode;
* a wrong expected final table (`final.csv` loses its last row), so the
  correctness gate fails after the timed phases;
* no `rules.json`, so set-up fails.

A broken run must still end in a result line, with `correct` false and
every attempted op failed, and exit code 1.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def drop_last_final_row(inputs):
    path = os.path.join(inputs, "final.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(lines[:-1]) + "\n")


def drop_rules(inputs):
    os.remove(os.path.join(inputs, "rules.json"))


def check(binary, bench, trace, breakage):
    args = argparse.Namespace(
        workload="append", seed=1, seconds=1, trace=trace,
        inputs=os.path.join(os.getcwd(), ".bench_work", "check-run"))
    out = io.StringIO()
    try:
        run.generate(binary, args)
        if breakage:
            breakage(args.inputs)
        with contextlib.redirect_stdout(out):
            code = run.report(args, run.measure_all(binary, args))
    finally:
        shutil.rmtree(args.inputs, ignore_errors=True)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    case = f"trace {trace}, {breakage.__name__ if breakage else 'intact'}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, case
    assert result["attempted"] >= 1, case
    if breakage:
        assert code == 1 and not result["correct"], case
        assert result["failed"] == result["attempted"], case
    else:
        assert code == 0 and result["correct"] and result["failed"] == 0, case
        wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
        assert set(result["metrics"]) == wanted, (case, set(result["metrics"]) ^ wanted)
    print(f"ok: {case} -> exit {code}, {result['failed']}/{result['attempted']} failed")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    binary = run.build()
    for trace in (0, 1):
        for breakage in (None, drop_last_final_row, drop_rules):
            check(binary, bench, trace, breakage)


if __name__ == "__main__":
    main()
