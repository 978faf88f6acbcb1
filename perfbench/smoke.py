#!/usr/bin/env python3
"""Smoke check of the GranLog benchmark.

Runs every workload (edit-serve too, which BENCHMARK.json does not gate)
with tiny inputs (--small) for one second, untraced and traced, and checks
each result line against BENCHMARK.json: exactly the listed metric names,
each with its listed unit, every end-to-end value non-zero, and zero
failed operations.  Run from the checkout root:

    python3 perfbench/smoke.py

Exits 0 when every check passes, 1 otherwise (listing the problems).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in ["corpus-cold", "edit-serve", "granularity-sim"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--small"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: missing {sorted(set(want) - set(got))}"
                                f", unexpected {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                if name not in got:
                    continue
                if got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} has unit "
                                    f"{got[name]['unit']}, want {unit}")
                if trace == 0 and not got[name]["value"]:
                    problems.append(f"{where}: {name} is 0")
            print(f"{where}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    for p in problems:
        print("FAIL:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
