"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads analyze_wide,analyze_ld --seeds 1-10
    python3 perfbench/spread.py --workloads all --seeds 101-110

For every workload it runs ``run.py --trace 0`` once per seed (one after
another, with ``run_seconds`` from ``BENCHMARK.json``) and prints, per
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (Q3 - Q1) / median, and the
metric's bound from ``BENCHMARK.json``.
A run that fails, or reports incorrect output, is printed and stops the
script with status 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    args = parser.parse_args()

    names = ([w["name"] for w in definition["workloads"]]
             if args.workloads == "all" else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    for name in names:
        values: dict[str, list[float]] = {}
        durations = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            done = subprocess.run(
                [*definition["command"], "--workload", name, "--seed",
                 str(seed), "--seconds", str(definition["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            durations.append(time.perf_counter() - t0)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
                print(f"{name} seed {seed}: failed run")
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"== {name}: {len(durations)} runs, "
              f"{statistics.median(durations):.1f} s median wall per run")
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {metric:<36} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}  "
                  f"bound {bounds[metric]:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
