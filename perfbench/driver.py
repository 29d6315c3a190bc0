"""The closed-loop driver: passes, timing, reference checks, metrics.

One pass = build a fresh sampler and engine, warm up on the first batch,
then send the remaining batches one at a time, each only after the
previous ``observe_batch`` returned, with the workload's queries in
between.  Only the program's public API is used: ``make_sampler``,
``Engine.observe_batch``, ``EventBatch``, ``sample()``, ``threshold``,
``stats()`` and ``close()``.

The host's speed is measured between passes (:mod:`calibrate`) and the
end-to-end timings are reported divided by each pass's host factor, so
they read as on the nominal host; the raw timings stay on every pass.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

import oracle
from calibrate import host_factor
from layers import TraceTotals, install
from spans import Patcher, SpanRecorder
from workloads import HASH_SEED, Inputs, Workload

__all__ = [
    "END_TO_END", "PassResult", "run_pass", "run_passes", "expected_answers",
    "hashes_agree", "check_passes", "throughput", "end_to_end", "pass_facts",
    "peak_rss_mb",
]

#: ``name -> unit`` of every end-to-end metric, in report order.
END_TO_END: dict[str, str] = {
    "throughput_eps": "ev/s",
    "ingest_p50_ms": "ms",
    "ingest_p90_ms": "ms",
    "query_p50_us": "us",
    "query_p90_us": "us",
    "messages_per_kevent": "1/kevent",
    "state_entries": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ops_frac": "ratio",
}

_SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


@dataclass
class PassResult:
    """What one pass measured and observed."""

    stream: int  # index of the pass stream this pass ran
    setup_s: float
    loop_s: float
    events: int  # timed events (the warm-up batch excluded)
    ingest_s: list[float]
    query_s: list[float]
    #: ``(query_point, sample fingerprint, threshold_or_None)`` per query.
    recorded: list[tuple[int, int, Optional[float]]]
    attempted: int
    raised: int
    counts: dict[str, Any] = field(default_factory=dict)
    leaked_segments: int = 0
    leaked_workers: int = 0
    #: Host slowness around the pass (:func:`calibrate.host_factor`).
    host: float = 1.0


def _make_batches(inputs: Inputs) -> list[Any]:
    """Fresh batch objects (hash caches must not survive between passes)."""
    from repro import EventBatch

    batches = []
    for index in range(inputs.num_batches):
        lo, hi = inputs.batch_bounds(index)
        batches.append(
            EventBatch(
                inputs.items[lo:hi],
                None if inputs.sites is None else inputs.sites[lo:hi],
                None if inputs.slots is None else inputs.slots[lo:hi],
            )
        )
    return batches


def query_ends(workload: Workload, inputs: Inputs) -> list[int]:
    """Stream positions of the query points, warm-up query first."""
    ends = [inputs.batch_size]
    for b in range(1, inputs.num_batches):
        if b % workload.query_every == 0:
            ends.append((b + 1) * inputs.batch_size)
    return ends


def _counts(sampler: Any) -> dict[str, Any]:
    stats = sampler.stats()
    return {
        "messages_total": stats.messages_total,
        "to_coordinator": stats.messages_to_coordinator,
        "to_sites": stats.messages_to_sites,
        "bytes_total": stats.bytes_total,
        "state_entries": stats.memory_total,
        "per_site_memory": list(stats.per_site_memory),
    }


def run_pass(
    workload: Workload,
    inputs: Inputs,
    stream: int,
    recorder: Optional[SpanRecorder] = None,
    totals: Optional[TraceTotals] = None,
    keep: Optional[dict] = None,
) -> PassResult:
    """One closed-loop pass; traced when ``recorder`` is given.

    ``keep``, when given and empty, receives the first sampler's public
    hasher and (sharded samplers) its ``shard_of``, for the reference
    checker and the paper-bound ratios.
    """
    from repro import Engine, make_sampler

    batches = _make_batches(inputs)
    segments_before = _shm_segments()

    started = time.perf_counter()
    sampler = make_sampler(
        workload.variant,
        num_sites=workload.num_sites,
        sample_size=workload.sample_size,
        window=workload.window,
        seed=HASH_SEED,
        algorithm="mix64",
        shards=workload.shards,
        executor=workload.executor,
        workers=workload.workers,
    )
    engine = Engine(sampler, policy=workload.policy, seed=HASH_SEED)
    executor = getattr(sampler, "executor", None)
    if hasattr(executor, "warmup"):
        executor.warmup()
    engine.observe_batch(batches[0])
    first = sampler.sample()
    setup_s = time.perf_counter() - started

    recorded: list[tuple[int, Any, Optional[float]]] = [
        (0, first.items, sampler.threshold if workload.threshold_reads else None)
    ]
    ingest_s: list[float] = []
    query_s: list[float] = []
    attempted = raised = 0
    point = 0
    sharded = workload.sharded
    if totals is not None and sharded:
        before = (
            list(sampler.group_ingest_seconds), executor.ipc_bytes,
            executor.pickle_bytes, executor.recoveries, sampler.sync_count,
            sampler.query_count,
        )
    patcher = None
    if recorder is not None:
        patcher = Patcher(recorder)
        install(patcher, totals)

    clock = time.perf_counter
    threshold_reads = workload.threshold_reads
    try:
        loop_started = clock()
        for b in range(1, len(batches)):
            attempted += 1
            t0 = clock()
            try:
                engine.observe_batch(batches[b])
            except Exception:
                raised += 1
            ingest_s.append(clock() - t0)
            if b % workload.query_every:
                continue
            point += 1
            for _ in range(workload.queries_per_round):
                attempted += 1
                t0 = clock()
                try:
                    result = sampler.sample()
                except Exception:
                    raised += 1
                    query_s.append(clock() - t0)
                    continue
                query_s.append(clock() - t0)
                threshold = sampler.threshold if threshold_reads else None
                recorded.append((point, result.items, threshold))
        loop_s = clock() - loop_started
    finally:
        if patcher is not None:
            patcher.restore()
    # Keep fingerprints, not samples: memory must not grow with passes.
    digests: dict[int, int] = {}
    for i, (at, items, threshold) in enumerate(recorded):
        digest = digests.get(id(items))
        if digest is None:
            digest = digests[id(items)] = oracle.fingerprint(items)
        recorded[i] = (at, digest, threshold)

    if totals is not None:
        totals.passes += 1
        totals.events += inputs.batch_size * (len(batches) - 1)
        totals.loop_ns += int(loop_s * 1e9)
        if sharded:
            g0, ipc, pickled, recoveries, syncs, queries = before
            groups = [b - a for a, b in zip(g0, sampler.group_ingest_seconds)]
            totals.group_s += sum(groups)
            if workload.out_of_process:
                totals.hidden_group_s += sum(groups)
            mean = sum(groups) / len(groups)
            totals.skews.append(max(groups) / mean if mean else 0.0)
            totals.ipc_bytes += executor.ipc_bytes - ipc
            totals.pickle_bytes += executor.pickle_bytes - pickled
            totals.recoveries += executor.recoveries - recoveries
            totals.syncs += sampler.sync_count - syncs
            totals.queries += sampler.query_count - queries

    counts = _counts(sampler)
    if keep is not None and not keep:
        keep["hasher"] = (
            sampler.sampling_hasher if sharded else sampler.hasher
        )
        keep["shard_of"] = sampler.shard_of if sharded else None
    close = getattr(sampler, "close", None)
    if close is not None:
        close()
    del engine, sampler
    leaked_workers = len(multiprocessing.active_children())
    leaked_segments = len(_shm_segments() - segments_before)
    return PassResult(
        stream=stream,
        setup_s=setup_s,
        loop_s=loop_s,
        events=inputs.batch_size * (len(batches) - 1),
        ingest_s=ingest_s,
        query_s=query_s,
        recorded=recorded,
        attempted=attempted,
        raised=raised,
        counts=counts,
        leaked_segments=leaked_segments,
        leaked_workers=leaked_workers,
    )


def run_passes(
    workload: Workload,
    streams: list[Inputs],
    seconds: float,
    trace: Optional[tuple[SpanRecorder, TraceTotals]] = None,
    keep: Optional[dict] = None,
) -> tuple[list[PassResult], list[PassResult]]:
    """Cycle through ``streams`` until ``seconds`` of wall time are used.

    Returns ``(untraced, traced)`` passes.  Every stream runs at least
    once and there are at least three untraced passes (the set-up time is
    a median over passes).  With ``trace=(recorder, totals)`` each
    untraced pass is followed by a traced pass over the same stream, so
    the two halves see the same host conditions.  The host factor is
    measured before the first pass and after every pass; each pass gets
    the mean of the two measurements around it.
    """
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    minimum = max(3, len(streams))
    started = time.perf_counter()
    host = host_factor()

    def timed(result: PassResult) -> PassResult:
        nonlocal host
        after = host_factor()
        result.host, host = 0.5 * (host + after), after
        return result

    while len(plain) < minimum or time.perf_counter() - started < seconds:
        index = len(plain) % len(streams)
        plain.append(timed(run_pass(workload, streams[index], index, keep=keep)))
        if trace is not None:
            recorder, totals = trace
            traced.append(timed(
                run_pass(workload, streams[index], index, recorder, totals)
            ))
    return plain, traced


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if values else 0.0


def hashes_agree(inputs: Inputs, hasher: Any) -> bool:
    """Whether the hasher's vector column matches its scalar path."""
    from repro import EventBatch

    hashes = EventBatch(inputs.items).hash_column(hasher)
    probe = np.random.default_rng(0).integers(0, inputs.items.size, 256)
    scalar = [hasher.unit(int(inputs.items[i])) for i in probe]
    return bool(np.array_equal(np.asarray(scalar), hashes[probe]))


def expected_answers(
    workload: Workload, inputs: Inputs, hasher: Any
) -> list[oracle.Expected]:
    """The reference answer at every query point of one stream."""
    from repro import EventBatch

    hashes = EventBatch(inputs.items).hash_column(hasher)
    ends = query_ends(workload, inputs)
    if workload.window:
        return oracle.expected_window(
            inputs.items, inputs.slots, hashes, ends, workload.sample_size,
            workload.window,
        )
    return oracle.expected_prefix(inputs.items, hashes, ends,
                                  workload.sample_size)


def check_passes(
    passes: list[PassResult], expected: list[list[oracle.Expected]]
) -> tuple[int, int, bool]:
    """``(attempted, failed, counts_repeat)`` over every pass.

    ``expected[i]`` holds the reference answers of stream ``i``.  A batch
    or query that raised, and a query whose answer differs from the
    reference, each count as one failed operation.  ``counts_repeat`` is
    false when two passes over the same stream end with different
    message or state counts.
    """
    attempted = failed = 0
    for p in passes:
        attempted += p.attempted
        failed += p.raised + oracle.count_failures(p.recorded, expected[p.stream])
    first = stream_counts(passes)
    counts_repeat = all(p.counts == first[p.stream] for p in passes)
    return attempted, failed, counts_repeat


def stream_counts(passes: list[PassResult]) -> list[dict[str, Any]]:
    """The end-of-pass counts of each stream's first pass, by stream."""
    first: dict[int, dict[str, Any]] = {}
    for p in passes:
        first.setdefault(p.stream, p.counts)
    return [first[i] for i in sorted(first)]


def throughput(passes: list[PassResult], normalized: bool = False) -> float:
    """Timed events over timed loop wall time, queries included.

    ``normalized`` divides each pass's wall time by its host factor.
    """
    wall = sum(p.loop_s / p.host if normalized else p.loop_s for p in passes)
    return sum(p.events for p in passes) / wall


def end_to_end(
    passes: list[PassResult],
    streams: list[Inputs],
    attempted: int,
    failed: int,
    peak_rss_mb: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """Every :data:`END_TO_END` metric, plus the sample counts behind them.

    Counts are taken once per stream, at the end of its first pass, over
    every event of the stream (warm-up batch included).  Timings are
    divided by their pass's host factor; the sample counts carry the raw
    throughput and the median host factor next to them.
    """
    ingest = [s / p.host for p in passes for s in p.ingest_s]
    queries = [s / p.host for p in passes for s in p.query_s]
    counts = stream_counts(passes)
    events = sum(inputs.items.size for inputs in streams)
    metrics = {
        "throughput_eps": throughput(passes, normalized=True),
        "ingest_p50_ms": 1e3 * _quantile(ingest, 0.5),
        "ingest_p90_ms": 1e3 * _quantile(ingest, 0.9),
        "query_p50_us": 1e6 * _quantile(queries, 0.5),
        "query_p90_us": 1e6 * _quantile(queries, 0.9),
        "messages_per_kevent":
            1e3 * sum(c["messages_total"] for c in counts) / events,
        "state_entries":
            statistics.mean(c["state_entries"] for c in counts),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(p.setup_s / p.host for p in passes),
        "ok_ops_frac": 1.0 - failed / attempted,
    }
    samples = {
        "passes": len(passes),
        "ingest_calls": len(ingest),
        "queries": len(queries),
        "streams": len(streams),
        "events_per_stream": streams[0].items.size,
        "host_factor_p50": statistics.median(p.host for p in passes),
        "raw_throughput_eps": throughput(passes),
    }
    return metrics, samples


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_facts(
    workload: Workload,
    streams: list[Inputs],
    passes: list[PassResult],
    shard_of: Any,
) -> dict[str, float]:
    """Per-stream counts and the paper-bound ratios (outside timing).

    Rates are summed over the streams; the candidate counts and the
    bound ratios are averaged over them.
    """
    from repro.analysis.bounds import sliding_window_space, upper_bound_total

    counts = stream_counts(passes)
    events = sum(inputs.items.size for inputs in streams)
    k, s = workload.num_sites, workload.sample_size
    lemma10: list[float] = []
    lemma4: list[float] = []
    for inputs, c in zip(streams, counts):
        if workload.window:
            live = oracle.live_distinct_per_site(
                inputs.items, inputs.sites, inputs.slots, workload.window, k
            )
            lemma10.extend(
                size / sliding_window_space(m)
                for size, m in zip(c["per_site_memory"], live) if m
            )
        else:
            # Lemma 4 per coordinator group, over the keys it owns.
            per_group = [0] * workload.shards
            for key in np.unique(inputs.items).tolist():
                per_group[shard_of(key)] += 1
            bound = sum(upper_bound_total(k, s, d) for d in per_group if d)
            lemma4.append(c["messages_total"] / bound)
    return {
        "workers": float(max(workload.workers, 1)),
        "leaked_shm_segments": float(sum(p.leaked_segments for p in passes)),
        "leaked_workers": float(sum(p.leaked_workers for p in passes)),
        "candidates_per_site": statistics.mean(
            size for c in counts for size in c["per_site_memory"]
        ),
        "to_coordinator_per_kevent":
            1e3 * sum(c["to_coordinator"] for c in counts) / events,
        "to_sites_per_kevent": 1e3 * sum(c["to_sites"] for c in counts) / events,
        "bytes_per_event": sum(c["bytes_total"] for c in counts) / events,
        "candidates_vs_lemma10": statistics.mean(lemma10) if lemma10 else 0.0,
        "messages_vs_lemma4": statistics.mean(lemma4) if lemma4 else 0.0,
    }
