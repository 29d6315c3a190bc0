"""Self-tests of the benchmark (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import driver  # noqa: E402
import oracle  # noqa: E402
from layers import PER_LAYER, TraceTotals, install, per_layer_metrics  # noqa: E402
from spans import Patcher, SpanRecorder, covered_time, self_times  # noqa: E402
from workloads import WORKLOADS, make_inputs, make_streams  # noqa: E402


def small(name: str) -> "driver.Workload":
    """A few-batch version of a workload, same shape otherwise."""
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        batches_per_pass=min(workload.batches_per_pass, 8),
        streams=min(workload.streams, 2),
        universe=min(workload.universe, 50_000),
    )


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = small(name)
    a, b = make_streams(workload, 7), make_streams(workload, 7)
    for x, y in zip(a, b):
        assert x.digest() == y.digest()
        assert x.items.tobytes() == y.items.tobytes()
        for cx, cy in ((x.sites, y.sites), (x.slots, y.slots)):
            assert (cx is None) == (cy is None)
            if cx is not None:
                assert cx.tobytes() == cy.tobytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_or_stream_gives_different_inputs(name):
    workload = small(name)
    digests = {
        make_inputs(workload, seed, stream).digest()
        for seed in (1, 2) for stream in (0, 1)
    }
    assert len(digests) == 4


def test_sliding_inputs_are_slot_ordered():
    inputs = make_inputs(WORKLOADS["sliding-window"], 3)
    assert np.all(np.diff(inputs.slots) >= 0)
    assert inputs.sites.min() >= 0
    assert inputs.sites.max() < WORKLOADS["sliding-window"].num_sites


# -- determinism of the counts ---------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_counts_exactly(name):
    workload = small(name)
    streams = make_streams(workload, 5)
    runs = []
    for _ in range(2):
        passes = [driver.run_pass(workload, inputs, i)
                  for i, inputs in enumerate(streams)]
        metrics, _ = driver.end_to_end(passes, streams, 1, 0, 1.0)
        runs.append(metrics)
    for key in ("messages_per_kevent", "state_entries"):
        assert runs[0][key] == runs[1][key]
        assert runs[0][key] > 0


# -- host-speed normalisation ----------------------------------------------


def test_reference_kernels_are_deterministic():
    assert calibrate.numpy_kernel() == calibrate.numpy_kernel()
    assert calibrate.python_kernel() == calibrate.python_kernel()
    assert calibrate.host_factor() > 0


def test_timings_are_divided_by_the_host_factor():
    workload = small("firehose")
    streams = make_streams(workload, 5)
    result = driver.run_pass(workload, streams[0], 0)
    slow = dataclasses.replace(
        result, host=2.0, loop_s=2 * result.loop_s, setup_s=2 * result.setup_s,
        ingest_s=[2 * s for s in result.ingest_s],
        query_s=[2 * s for s in result.query_s],
    )
    base, _ = driver.end_to_end([result] * 3, streams, 1, 0, 1.0)
    scaled, samples = driver.end_to_end([slow] * 3, streams, 1, 0, 1.0)
    for name in ("throughput_eps", "ingest_p50_ms", "ingest_p90_ms",
                 "query_p50_us", "query_p90_us", "setup_s"):
        assert scaled[name] == pytest.approx(base[name], rel=1e-12)
    assert samples["host_factor_p50"] == 2.0
    assert samples["raw_throughput_eps"] == pytest.approx(
        base["throughput_eps"] / 2, rel=1e-12)


def test_every_pass_gets_a_host_factor():
    workload = small("sliding-window")
    plain, _ = driver.run_passes(workload, make_streams(workload, 3), 0.0)
    assert len(plain) == 3
    assert all(p.host > 0 and p.host != 1.0 for p in plain)


# -- the reference checker -------------------------------------------------


def _one_pass(name: str):
    workload = small(name)
    inputs = make_inputs(workload, 11)
    keep: dict = {}
    result = driver.run_pass(workload, inputs, 0, keep=keep)
    expected = driver.expected_answers(workload, inputs, keep["hasher"])
    return result, expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_run_has_no_failures(name):
    result, expected = _one_pass(name)
    attempted, failed, repeat = driver.check_passes([result], [expected])
    assert attempted == result.attempted > 0
    assert failed == 0 and repeat


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_sample_is_counted_failed(name):
    result, expected = _one_pass(name)
    point, _, threshold = result.recorded[-1]
    items = expected[point].items.tolist()
    assert items
    swapped = [*items[:-1], max(items) + 1]
    for bad in (swapped, items[:-1], [*items, max(items) + 1]):
        record = (point, oracle.fingerprint(bad), threshold)
        assert oracle.count_failures([record], expected) == 1
    result.recorded.append((point, oracle.fingerprint(swapped), threshold))
    _, failed, _ = driver.check_passes([result], [expected])
    assert failed == 1


def test_corrupted_threshold_is_counted_failed():
    result, expected = _one_pass("mixed-rw")
    point, digest, threshold = result.recorded[-1]
    assert threshold is not None
    bad = (point, digest, np.nextafter(threshold, 2.0))
    assert oracle.count_failures([bad], expected) == 1


def test_window_oracle_uses_last_arrival():
    # Key 5 arrives at slot 0 and again at slot 3; with W=2 at now=3 the
    # live window is slots {2, 3}: keys 5 and 8 (key 7 at slot 1 expired).
    items = np.array([5, 7, 8, 5], dtype=np.int64)
    slots = np.array([0, 1, 2, 3], dtype=np.int64)
    hashes = np.array([0.1, 0.2, 0.3, 0.1])
    (answer,) = oracle.expected_window(items, slots, hashes, [4], s=4, window=2)
    assert answer.items.tolist() == [5, 8]
    assert answer.threshold == 1.0
    (answer,) = oracle.expected_window(items, slots, hashes, [4], s=1, window=2)
    assert answer.items.tolist() == [5] and answer.threshold == 0.1


def test_prefix_oracle_bottom_s():
    items = np.array([4, 4, 9, 2, 6], dtype=np.int64)
    hashes = np.array([0.5, 0.5, 0.2, 0.9, 0.1])
    answers = oracle.expected_prefix(items, hashes, [2, 3, 5], s=2)
    assert [a.items.tolist() for a in answers] == [[4], [4, 9], [6, 9]]
    assert [a.threshold for a in answers] == [1.0, 0.5, 0.2]


# -- spans and self time ---------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has child
    # c [15, 25); a second root d [100, 110) has no children.
    starts = np.array([0, 10, 15, 50, 100])
    ends = np.array([100, 40, 25, 90, 110])
    parents = np.array([-1, 0, 1, 0, -1])
    assert self_times(starts, ends, parents).tolist() == [30, 20, 10, 40, 10]
    assert covered_time(starts, ends, parents) == 110


def test_recorder_nests_and_shares_run_id(tmp_path):
    recorder = SpanRecorder("run-1")
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    assert recorder.current() == "inner"
    recorder.close(inner)
    recorder.close(outer)
    assert recorder.current() is None
    assert recorder.parents == [-1, 0]
    assert recorder.ends[0] >= recorder.ends[1] >= recorder.starts[1]
    path = tmp_path / "spans.npz"
    recorder.write(str(path))
    with np.load(path) as saved:
        assert str(saved["run_id"]) == "run-1"
        names = [str(saved["table"][code]) for code in saved["name"]]
        assert names == ["outer", "inner"]
        assert saved["parent"].tolist() == [-1, 0]


def test_patcher_restores_every_wrapped_function():
    from repro.netsim.network import Network
    from repro.runtime.engine import Engine

    before = (Engine.__dict__["observe_batch"], Network.__dict__["send"])
    patcher = Patcher(SpanRecorder("r"))
    install(patcher, TraceTotals())
    assert Engine.__dict__["observe_batch"] is not before[0]
    patcher.restore()
    assert (Engine.__dict__["observe_batch"], Network.__dict__["send"]) == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_covered_and_reports_every_layer(name):
    workload = small(name)
    streams = make_streams(workload, 2)
    keep: dict = {}
    recorder, totals = SpanRecorder("t"), TraceTotals()
    plain, traced = driver.run_passes(workload, streams, 0.0,
                                      trace=(recorder, totals), keep=keep)
    assert len(plain) == len(traced) == totals.passes
    facts = driver.pass_facts(workload, streams, plain + traced,
                              keep["shard_of"])
    metrics = per_layer_metrics(recorder, totals, driver.throughput(plain),
                                driver.throughput(traced), facts)
    assert set(metrics) == set(PER_LAYER)
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["trace.covered_frac"] >= 0.9
    assert metrics["core.ns_per_event"] > 0
    assert metrics["executor.leaked_shm_segments"] == 0
    assert metrics["executor.leaked_workers"] == 0


# -- the BENCHMARK.json contract ------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    # mixed-rw stays runnable by name but is not one of the driver's
    # workloads (see workloads.py).
    assert [w["name"] for w in spec["workloads"]] == ["firehose",
                                                      "sliding-window"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == driver.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "firehose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
