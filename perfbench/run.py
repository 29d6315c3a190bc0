#!/usr/bin/env python3
"""Run one benchmark workload and print every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload firehose --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; their
timings are divided by the host factor measured between passes (see
:mod:`calibrate`).
``--trace 1`` alternates untraced and traced passes over the same
streams, prints the per-layer table next to the untraced end-to-end
numbers, and writes the spans to
``perfbench/out/spans-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable table and a provenance record.  The workloads and
metrics are described in ``BENCHMARK.json``, :mod:`workloads`,
:mod:`driver` and :mod:`layers`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this run may have started."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - platform without it
        return
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _table(title: str, metrics: dict[str, float], units: dict[str, str]) -> str:
    lines = [title, f"  {'metric':34s} {'value':>16s}  unit"]
    for name, unit in units.items():
        lines.append(f"  {name:34s} {metrics[name]:16.6g}  {unit}")
    return "\n".join(lines)


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import repro

    import driver
    from layers import PER_LAYER, TraceTotals, per_layer_metrics
    from spans import SpanRecorder
    from workloads import WORKLOADS, make_streams

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    streams = make_streams(workload, args.seed)
    keep: dict[str, Any] = {}
    trace = None
    if args.trace:
        run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
        recorder, totals = SpanRecorder(run_id), TraceTotals()
        trace = (recorder, totals)
    try:
        untraced, traced = driver.run_passes(workload, streams, args.seconds,
                                             trace=trace, keep=keep)
        rss = driver.peak_rss_mb()
    finally:
        _stop_resource_tracker()

    everything = untraced + traced
    expected = [driver.expected_answers(workload, inputs, keep["hasher"])
                for inputs in streams]
    attempted, failed, counts_repeat = driver.check_passes(everything, expected)
    if not driver.hashes_agree(streams[0], keep["hasher"]):
        failed = attempted  # the reference itself cannot be trusted
    e2e, samples = driver.end_to_end(untraced, streams, attempted, failed, rss)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": dataclasses.asdict(workload),
        "inputs_crc32": [inputs.digest() for inputs in streams],
        "samples": samples,
        "counts_repeat": counts_repeat,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "git_commit": _git_commit(),
    }
    print(_table(f"end-to-end ({workload.name}, untraced, "
                 f"{samples['passes']} passes, {samples['ingest_calls']} "
                 f"ingest calls, {samples['queries']} queries; timings "
                 f"divided by the host factor, median "
                 f"{samples['host_factor_p50']:.3f}; raw throughput "
                 f"{samples['raw_throughput_eps']:.6g} ev/s)",
                 e2e, driver.END_TO_END))
    metrics, units = e2e, driver.END_TO_END
    if args.trace:
        facts = driver.pass_facts(workload, streams, everything,
                                  keep["shard_of"])
        metrics = per_layer_metrics(recorder, totals,
                                    driver.throughput(untraced),
                                    driver.throughput(traced), facts)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        print(_table(f"per-layer ({len(traced)} traced passes, "
                     f"{len(recorder)} spans)", metrics, units))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
        recorder.write(str(spans_path))
        provenance["run_id"] = run_id
        provenance["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
