"""Which of the program's entry points are traced, and the per-layer table.

Spans are recorded around calls into each layer, from outside the
program (see :mod:`spans`).  Layers and the span names they own:

========== ==================================================================
layer      span names (wrapped function)
========== ==================================================================
engine     ``engine`` (``Engine.observe_batch``), ``engine.route``
           (``HashDistributor.assignments_for_batch`` called by the engine)
hashing    ``hashing`` (``EventBatch.hash_column``)
sharded    ``sharded`` (``ShardedSampler.observe_columns``),
           ``sharded.split`` (the per-batch split: ``_deliver_columns`` on
           the serial backend, ``_plan_columns`` on shm), ``sharded.route``
           (the shard router), ``query`` (``sample``), ``sharded.merge``
executor   ``executor.ingest`` (backend ``ingest_columns``),
           ``executor.sync`` (backend ``sync``)
core       ``core`` (group ``observe_columns``), ``query`` on a
           single-coordinator sampler
structures ``dominance`` (``SortedDominanceSet.observe``), ``bottomk``
           (``BottomK.offer``)
netsim     ``netsim`` (``Network.send``)
========== ==================================================================

Group work on the shm backend runs in worker processes, out of reach of
these wrappers; it is attributed from the backend's own counters
(``group_ingest_seconds``, ``ipc_bytes``, ``pickle_bytes``,
``recoveries``) instead.

Which end-to-end metric each layer metric should move, and where:

* ``hashing.*``, ``engine.*``, ``sharded.split_ns_per_event``,
  ``bottomk.*``: ``throughput_eps`` and ``ingest_p50_ms`` on firehose
  (hashing also on sliding-window, where it is paid per slot run).
* ``sharded.cold_query_us_p50``: ``query_p50_us`` on firehose and
  ``query_p90_us`` on mixed-rw; ``sharded.cached_query_ns_p50``:
  ``query_p50_us`` on mixed-rw; ``sharded.syncs_per_query`` and
  ``sharded.group_time_skew``: mixed-rw.
* ``executor.dispatch_ns_per_event``, ``executor.worker_wait_ns_per_event``,
  ``executor.ipc_bytes_per_event``, ``executor.worker_busy_frac``:
  ``throughput_eps`` and ``ingest_p90_ms`` on mixed-rw (about 0 on
  firehose); ``executor.sync_*``: ``query_p90_us`` on mixed-rw;
  ``executor.recoveries`` and the leak counts: ``ok_ops_frac``.
* ``core.ns_per_event``: throughput on every workload;
  ``core.candidates_*``: ``state_entries`` on sliding-window.
* ``dominance.*``: ``throughput_eps`` and ``ingest_p50_ms`` on
  sliding-window (absent elsewhere).
* ``netsim.*``: ``messages_per_kevent`` and throughput on sliding-window;
  the ``*_vs_lemma*`` ratios set the counts against the paper's bounds.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from spans import Patcher, SpanRecorder, covered_time, self_times

__all__ = ["PER_LAYER", "TraceTotals", "install", "per_layer_metrics"]

#: ``name -> (unit, better)`` of every per-layer metric, in report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "hashing.ns_per_event": ("ns", "lower"),
    "hashing.calls": ("1/pass", "lower"),
    "engine.route_ns_per_event": ("ns", "lower"),
    "engine.self_ns_per_event": ("ns", "lower"),
    "sharded.split_ns_per_event": ("ns", "lower"),
    "sharded.cold_query_us_p50": ("us", "lower"),
    "sharded.cached_query_ns_p50": ("ns", "lower"),
    "sharded.syncs_per_query": ("ratio", "lower"),
    "sharded.group_time_skew": ("ratio", "lower"),
    "executor.dispatch_ns_per_event": ("ns", "lower"),
    "executor.worker_wait_ns_per_event": ("ns", "lower"),
    "executor.sync_calls": ("1/pass", "lower"),
    "executor.sync_ms_p50": ("ms", "lower"),
    "executor.ipc_bytes_per_event": ("B", "lower"),
    "executor.pickle_bytes_per_event": ("B", "lower"),
    "executor.worker_busy_frac": ("ratio", "higher"),
    "executor.recoveries": ("count", "lower"),
    "executor.leaked_shm_segments": ("count", "lower"),
    "executor.leaked_workers": ("count", "lower"),
    "core.ns_per_event": ("ns", "lower"),
    "core.candidates_per_site": ("count", "lower"),
    "core.candidates_vs_lemma10": ("ratio", "lower"),
    "dominance.observe_calls": ("1/pass", "lower"),
    "dominance.ns_per_observe": ("ns", "lower"),
    "bottomk.offers": ("1/pass", "lower"),
    "bottomk.ns_per_offer": ("ns", "lower"),
    "netsim.sends": ("1/pass", "lower"),
    "netsim.ns_per_send": ("ns", "lower"),
    "netsim.to_coordinator_per_kevent": ("1/kevent", "lower"),
    "netsim.to_sites_per_kevent": ("1/kevent", "lower"),
    "netsim.bytes_per_event": ("B", "lower"),
    "netsim.messages_vs_lemma4": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.covered_frac": ("ratio", "higher"),
}


@dataclass
class TraceTotals:
    """Counters read around traced passes (summed over them)."""

    passes: int = 0
    events: int = 0
    loop_ns: int = 0
    #: Per executor-ingest call: the slowest worker's group time (s) —
    #: the share of the call's wall time the parent spent waiting on
    #: work its wrappers cannot see.  Empty for in-process backends.
    hidden_worker_s: list[float] = field(default_factory=list)
    hidden_group_s: float = 0.0  # all out-of-process group time
    group_s: float = 0.0  # all group time (any backend)
    skews: list[float] = field(default_factory=list)
    ipc_bytes: int = 0
    pickle_bytes: int = 0
    recoveries: int = 0
    syncs: int = 0
    queries: int = 0


def install(patcher: Patcher, totals: TraceTotals) -> None:
    """Wrap every traced entry point (restored by ``patcher.restore``)."""
    from repro.core.events import EventBatch
    from repro.core.infinite import BottomSFacadeBase
    from repro.core.sliding_feedback import SlidingWindowBottomSFeedback
    from repro.netsim.network import Network
    from repro.runtime.engine import Engine
    from repro.runtime.executor import (
        ExecutionBackend,
        SerialExecutor,
        SharedMemoryExecutor,
    )
    from repro.runtime.sharded import ShardedSampler
    from repro.streams.partition import HashDistributor
    from repro.structures.bottomk import BottomK
    from repro.structures.dominance import SortedDominanceSet

    current = patcher.recorder.current

    def route_name(_: Any) -> str:
        # The engine calls its router directly from its own span.
        return "engine.route" if current() == "engine" else "sharded.route"

    def worker_wait(function: Callable[..., Any]) -> Callable[..., Any]:
        # Group g runs in shm worker g % W; the parent waits for the
        # busiest worker's share of the batch.
        def hooked(self: Any, sharded: Any, batch: Any) -> Any:
            before = list(sharded.group_ingest_seconds)
            try:
                return function(self, sharded, batch)
            finally:
                after = sharded.group_ingest_seconds
                per_worker = [0.0] * self.workers
                for g, (a, b) in enumerate(zip(before, after)):
                    per_worker[g % self.workers] += b - a
                totals.hidden_worker_s.append(max(per_worker))

        return hooked

    patcher.wrap(Engine, "observe_batch", "engine")
    patcher.wrap(HashDistributor, "assignments_for_batch", route_name)
    patcher.wrap(EventBatch, "hash_column", "hashing")
    patcher.wrap(ShardedSampler, "observe_columns", "sharded")
    patcher.wrap(ShardedSampler, "_deliver_columns", "sharded.split")
    patcher.wrap(ShardedSampler, "_plan_columns", "sharded.split")
    patcher.wrap(ShardedSampler, "sample", "query")
    patcher.wrap(ShardedSampler, "_merge_groups", "sharded.merge")
    patcher.wrap(SerialExecutor, "ingest_columns", "executor.ingest")
    patcher.wrap(SharedMemoryExecutor, "ingest_columns", "executor.ingest",
                 hook=worker_wait)
    patcher.wrap(ExecutionBackend, "sync", "executor.sync")
    patcher.wrap(SharedMemoryExecutor, "sync", "executor.sync")
    patcher.wrap(BottomSFacadeBase, "observe_columns", "core")
    patcher.wrap(SlidingWindowBottomSFeedback, "observe_columns", "core")
    patcher.wrap(SlidingWindowBottomSFeedback, "sample", "query")
    patcher.wrap(SortedDominanceSet, "observe", "dominance")
    patcher.wrap(BottomK, "offer", "bottomk")
    patcher.wrap(Network, "send", "netsim")


def _median(values: Any) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    totals: TraceTotals,
    untraced_eps: float,
    traced_eps: float,
    pass_facts: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans and counters.

    ``pass_facts`` carries the per-pass counts the driver read from
    ``stats()`` (identical on every pass) and the paper-bound ratios.
    """
    names, starts, ends, parents = recorder.arrays()
    selfs = self_times(starts, ends, parents)
    durations = ends - starts
    events = max(totals.events, 1)
    passes = max(totals.passes, 1)

    def mask(name: str) -> np.ndarray:
        return names == recorder.code(name)

    def self_ns(*span_names: str) -> float:
        return float(sum(selfs[mask(n)].sum() for n in span_names))

    def count(name: str) -> int:
        return int(mask(name).sum())

    def per_call_ns(name: str, use_self: bool = False) -> float:
        m = mask(name)
        if not m.any():
            return 0.0
        return float((selfs if use_self else durations)[m].mean())

    # A query span is cold when it contains a merge.
    merged = np.zeros(len(names), dtype=bool)
    merge_parents = parents[mask("sharded.merge")]
    merged[merge_parents[merge_parents >= 0]] = True
    query = mask("query") & (parents < 0)
    cold = durations[query & merged]
    cached = durations[query & ~merged]
    sharded = bool(merge_parents.size)

    hidden_worker_ns = 1e9 * sum(totals.hidden_worker_s)
    loop_ns = max(totals.loop_ns, 1)
    return {
        "hashing.ns_per_event": self_ns("hashing") / events,
        "hashing.calls": count("hashing") / passes,
        "engine.route_ns_per_event": self_ns("engine.route") / events,
        "engine.self_ns_per_event": self_ns("engine") / events,
        "sharded.split_ns_per_event":
            self_ns("sharded", "sharded.split", "sharded.route") / events,
        "sharded.cold_query_us_p50": _median(cold) / 1e3 if sharded else 0.0,
        "sharded.cached_query_ns_p50": _median(cached) if sharded else 0.0,
        "sharded.syncs_per_query":
            totals.syncs / totals.queries if totals.queries else 0.0,
        "sharded.group_time_skew": _median(totals.skews),
        "executor.dispatch_ns_per_event":
            (self_ns("executor.ingest") - hidden_worker_ns) / events,
        "executor.worker_wait_ns_per_event": hidden_worker_ns / events,
        "executor.sync_calls": count("executor.sync") / passes,
        "executor.sync_ms_p50": _median(durations[mask("executor.sync")]) / 1e6,
        "executor.ipc_bytes_per_event": totals.ipc_bytes / events,
        "executor.pickle_bytes_per_event": totals.pickle_bytes / events,
        "executor.worker_busy_frac":
            1e9 * totals.group_s / (pass_facts["workers"] * loop_ns),
        "executor.recoveries": float(totals.recoveries),
        "executor.leaked_shm_segments": pass_facts["leaked_shm_segments"],
        "executor.leaked_workers": pass_facts["leaked_workers"],
        "core.ns_per_event":
            (self_ns("core") + 1e9 * totals.hidden_group_s) / events,
        "core.candidates_per_site": pass_facts["candidates_per_site"],
        "core.candidates_vs_lemma10": pass_facts["candidates_vs_lemma10"],
        "dominance.observe_calls": count("dominance") / passes,
        "dominance.ns_per_observe": per_call_ns("dominance"),
        "bottomk.offers": count("bottomk") / passes,
        "bottomk.ns_per_offer": per_call_ns("bottomk"),
        "netsim.sends": count("netsim") / passes,
        "netsim.ns_per_send": per_call_ns("netsim", use_self=True),
        "netsim.to_coordinator_per_kevent":
            pass_facts["to_coordinator_per_kevent"],
        "netsim.to_sites_per_kevent": pass_facts["to_sites_per_kevent"],
        "netsim.bytes_per_event": pass_facts["bytes_per_event"],
        "netsim.messages_vs_lemma4": pass_facts["messages_vs_lemma4"],
        "trace.overhead_frac":
            1.0 - traced_eps / untraced_eps if untraced_eps else 0.0,
        "trace.covered_frac":
            covered_time(starts, ends, parents) / loop_ns,
    }
