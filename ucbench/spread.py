#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each named workload
and prints, per (metric, workload), the median and the distance between
the first and third quartile as a share of the median -- the spread each
metric's bound is judged against. Every result line is checked against
the manifest: exactly the keys correct, attempted, failed and metrics,
and every end-to-end metric (per-layer with --trace 1) in its unit.

    python3 ucbench/spread.py [--seeds 1,2,...] [--trace 1] [workload ...]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    listed = bench["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    bounds = {m["name"]: m.get("bound") for m in listed}
    worst = 0.0
    for wl in args.workloads:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.monotonic()
            run = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print(f"{wl} seed {seed}: exit {run.returncode} "
                  f"correct {result.get('correct')} failed {result.get('failed')} "
                  f"wall {wall:.1f} s", flush=True)
            if run.returncode != 0 or not result.get("correct"):
                sys.stderr.write(run.stderr[-4000:])
                sys.exit(1)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or got != units \
                    or not isinstance(result["attempted"], int) or result["attempted"] < 1 \
                    or not isinstance(result["failed"], int):
                sys.exit(f"result line does not match the manifest: {lines[-1]}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("    " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {wl:16s} {name:20s} median {med:14.4f}  spread {spread:6.3f}"
                  f"  bound {shown}  min {min(v):.4f}  max {max(v):.4f}")
    print(f"largest spread / bound (setup_s excepted): {worst:.2f}")


if __name__ == "__main__":
    main()
