#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and quartile spread (interquartile distance over the median), next to
the bound BENCHMARK.json fixes for it.

    python3 bench/spread.py --workload invoke_zero [--runs 10] [--first-seed 1]

Run from the repository root. Each run's result line is appended to
--log (default: none) so a later comparison can reuse it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--log")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)

    worst = 0.0
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:<18} median {med:<14.6g} spread {spread:7.4f} "
              f"bound {bounds[name]:.2f} ({share:5.2f} of bound)")
    print(f"worst spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
