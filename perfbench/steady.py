#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and quartile spread (Q3 - Q1 as a share of the median,
quartiles as `statistics.quantiles(n=4)` gives them) against its bound.

    python3 perfbench/steady.py --workload W [--seeds 0-9] [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median, quartile_spread  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {result}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in
                                           result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs) if len(xs) >= 2 else 0.0
        flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"]
                                                    else "OVER BOUND")
        print(f"{m['name']:>18}: median {median(xs):.5g} {m['unit']}, spread {spread:.4f} "
              f"(bound {m['bound']}) {flag}")


if __name__ == "__main__":
    main()
