#!/usr/bin/env python3
"""Build and run the GranLog benchmark (granbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 10 --trace 0

Workloads: corpus-cold, edit-serve, granularity-sim, or "all" (each in
turn, in its own process, so one workload's memory peak never shows in
another's).  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones.  --small shrinks the inputs (the smoke check uses it).

The first run configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the granbench program, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only re-check the
build.  Build output goes to stderr.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["corpus-cold", "edit-serve", "granularity-sim"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    configured = any(os.path.exists(os.path.join(bdir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_one(exe, out_dir, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"granbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None, ""
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        print(f"granbench: {workload} exited {proc.returncode}",
              file=sys.stderr)
        return None, proc.stdout
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"granbench: {workload} printed no result", file=sys.stderr)
        return None, proc.stdout
    return result, "\n".join(lines[:-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("granbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(bdir, "granbench")
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    # Relative, so the server's AF_UNIX socket path stays short.
    out_dir = os.path.relpath(out_dir, ROOT)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, text = run_one(exe, out_dir, name, args)
        if result is None:
            if text:
                print(text, file=sys.stderr)
            return 1
        if text:
            print(text)
        results[name] = result
        if len(names) > 1:
            print(json.dumps({"kind": "result", "workload": name, **result}))

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {f"{w}/{k}": v for w, r in results.items()
                          for k, v in r["metrics"].items()}}
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
