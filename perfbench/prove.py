#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median, quartiles and spread (IQR / median), the way the
benchmark's acceptance rule reads them.

    python3 perfbench/prove.py --workload paper-k1 [--workload ...] \
        [--seeds 10] [--first-seed 1] [--trace 0|1] [--out FILE]

Run from the repository root. The command comes from BENCHMARK.json;
set CARGO_TARGET_DIR to reuse a build directory. The values of every
run are written to FILE (default .bench_out/prove.json).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=".bench_out/prove.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            print(f"{workload:16} {name:36} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}{flag}")
        summary[workload] = rows
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
