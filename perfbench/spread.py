#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's median and
spread (interquartile range over median, from ``statistics.quantiles``).

    python3 perfbench/spread.py --workload sweep --seeds 1-10
    python3 perfbench/spread.py --workload sweep --seeds 1-10 --trace 1

Every run is a separate ``run.py`` invocation with the run length of
``BENCHMARK.json``.  The summary is printed and written to
``.perfbench/spread-<workload>-trace<t>.json``; ``baseline.json`` in this
directory holds such summaries for the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict = {}
    units: dict = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=run.ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]), flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0, "values": vals}
    bounds = {m["name"]: m["bound"] for m in run.load_spec()["end_to_end"]}
    for name, row in summary.items():
        if args.trace and row["median"] == 0:
            continue
        note = f"  (bound {bounds[name]})" if name in bounds else ""
        print(f"{args.workload} {name}: median {row['median']:.6g} {row['unit']}, "
              f"spread {row['spread']:.3f}{note}")
    os.makedirs(run.OUT, exist_ok=True)
    path = os.path.join(run.OUT, f"spread-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seeds": parse_seeds(args.seeds),
                   "trace": args.trace, "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
