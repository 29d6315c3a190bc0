#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload sliding-window --seeds 1-5

For every end-to-end metric this prints the median of the runs and the
interquartile range as a share of the median (``statistics.quantiles``
with ``n=4``), next to the metric's bound from ``BENCHMARK.json`` and a
verdict: ``ok`` below a third of the bound, ``tight`` below the bound,
``WIDE`` above it (``setup_s`` is exempt from the spread rule).  Runs
are sequential, one workload at a time, so they do not disturb each
other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [*spec["command"], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=180, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({result['failed']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        samples = json.loads(
            done.stdout.strip().splitlines()[-2])["provenance"]["samples"]
        print(f"seed {seed}: host_factor={samples['host_factor_p50']:.3f} "
              + " ".join(f"{name}={metric['value']:.6g}"
                         for name, metric in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs of {args.seconds} s")
    print(f"  {'metric':22s} {'median':>12s} {'iqr/median':>11s} "
          f"{'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        verdict = "ok" if spread < bound / 3 else "tight" if spread <= bound else "WIDE"
        if name == "setup_s":
            verdict += " (exempt)"
        print(f"  {name:22s} {median:12.6g} {spread:11.4f} {bound:6.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
