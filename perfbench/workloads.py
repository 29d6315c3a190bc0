"""Workload definitions and seeded input generation.

Every input is generated here with NumPy from the ``--seed`` argument and
nothing from the program under test (no ``repro.streams``, no
``repro.perf.scenarios``), so a later change to the program cannot change
what the benchmark feeds it.  The same seed gives byte-identical inputs.

A run cycles through a fixed set of pass streams.  Each pass builds a
fresh sampler, ingests its stream's first batch as warm-up, then drives
the remaining batches through a closed loop (the next batch is sent only
after ``observe_batch`` returns).  The work of a pass is fixed, so counts
such as messages and state size repeat exactly at a fixed seed.

The streams are drawn from a fixed key population: the key ids, their
popularity ranks and the sampler's hash seed are constants of the
workload, and the seed draws the arrival streams (which keys arrive, in
what order, at which sites and slots).  The sliding protocol's message
count swings by about +-20% from one 4k-event stream to the next,
because a lapsed sample threshold makes all k sites re-push their local
bottom-s at once, and by more when the heavy Zipf keys get new hashes.
``sliding-window`` therefore runs 48 distinct streams over one fixed
population, each at least once in a run: over five seeds the
interquartile spread of its messages-per-event was 2% this way, 8% with
24 streams and about 15% with a population (and hash seed) drawn per
seed; its throughput and latencies follow the message count.

``mixed-rw`` (the firehose sampler on two shm workers, 2k-key batches,
four reads per batch) is defined and self-tested here but is not listed
in ``BENCHMARK.json``: it is bound by inter-process round trips, and on
a 2-core shared host the ten-seed spread of its throughput and p90
ingest latency read 0.27-0.47 of the median, over the 0.25 bound.  Run
it by name (``--workload mixed-rw --trace 1``) for the executor, IPC,
sync and merge-cache layers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Workload", "Inputs", "WORKLOADS", "HASH_SEED", "make_inputs",
           "make_streams"]

#: Seed of every sampler's hash function and of the engine's router.
HASH_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: sampler shape, stream shape, loop shape.

    Why each workload exists is recorded next to its name in
    ``BENCHMARK.json``.
    """

    name: str
    variant: str
    policy: str  # Engine routing policy: "hash" or "explicit"
    num_sites: int
    sample_size: int
    window: int
    shards: int
    executor: str
    workers: int
    universe: int
    zipf_a: float  # 0.0 = uniform keys
    batch_size: int
    batches_per_pass: int  # timed batches; one more batch is the warm-up
    streams: int  # distinct pass streams a run cycles through
    query_every: int  # batches between query rounds
    queries_per_round: int
    threshold_reads: bool  # read .threshold after each sample()
    events_per_slot: float  # 0.0 = no slot column

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    @property
    def out_of_process(self) -> bool:
        """Whether group work runs in worker processes."""
        return self.executor in ("shm", "process")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="firehose",
            variant="sharded:infinite",
            policy="hash",
            num_sites=8,
            sample_size=256,
            window=0,
            shards=4,
            executor="serial",
            workers=0,
            universe=2_000_000,
            zipf_a=0.0,
            batch_size=16_384,
            batches_per_pass=64,
            streams=1,
            query_every=8,
            queries_per_round=1,
            threshold_reads=False,
            events_per_slot=0.0,
        ),
        Workload(
            name="sliding-window",
            variant="sliding",
            policy="explicit",
            num_sites=8,
            sample_size=32,
            window=512,
            shards=1,
            executor="serial",
            workers=0,
            universe=20_000,
            zipf_a=1.1,
            batch_size=128,
            batches_per_pass=32,
            streams=48,
            query_every=1,
            queries_per_round=1,
            threshold_reads=False,
            events_per_slot=4.0,
        ),
        Workload(
            name="mixed-rw",
            variant="sharded:infinite",
            policy="hash",
            num_sites=8,
            sample_size=256,
            window=0,
            shards=4,
            executor="shm",
            workers=2,
            universe=500_000,
            zipf_a=0.0,
            batch_size=2_048,
            batches_per_pass=128,
            streams=1,
            query_every=1,
            queries_per_round=4,
            threshold_reads=True,
            events_per_slot=0.0,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """One pass's stream: ``1 + batches_per_pass`` equal-size batches."""

    items: np.ndarray  # int64 keys
    sites: Optional[np.ndarray]  # int64 site ids (explicit policy only)
    slots: Optional[np.ndarray]  # int64 non-decreasing slot stamps
    batch_size: int

    @property
    def num_batches(self) -> int:
        return self.items.size // self.batch_size

    def batch_bounds(self, index: int) -> tuple[int, int]:
        start = index * self.batch_size
        return start, start + self.batch_size

    def digest(self) -> str:
        """CRC of every column, for provenance and reproducibility checks."""
        crc = 0
        for column in (self.items, self.sites, self.slots):
            if column is not None:
                crc = zlib.crc32(column.tobytes(), crc)
        return f"{crc:08x}"


def _rng(workload: Workload, *seed: int) -> np.random.Generator:
    """The workload's generator; no seed gives the key-population one."""
    tag = zlib.crc32(workload.name.encode())
    return np.random.default_rng(np.random.SeedSequence([*seed, tag]))


def make_streams(workload: Workload, seed: int) -> list[Inputs]:
    """Every pass stream of a run under ``seed``."""
    return [make_inputs(workload, seed, i) for i in range(workload.streams)]


def make_inputs(workload: Workload, seed: int, stream: int = 0) -> Inputs:
    """Pass stream ``stream`` of ``workload`` under ``seed`` (deterministic)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # Distinct random 62-bit ids, index = popularity rank: key values
    # carry no structure a hash could exploit, and int64 keeps every
    # column on the columnar path.
    universe = _rng(workload).choice(
        np.int64(1) << 62, size=workload.universe, replace=False
    )
    rng = _rng(workload, seed, stream)
    n = workload.batch_size * (1 + workload.batches_per_pass)
    if workload.zipf_a > 0.0:
        weights = np.arange(1, workload.universe + 1, dtype=np.float64)
        weights **= -workload.zipf_a
        weights /= weights.sum()
        ranks = rng.choice(workload.universe, size=n, p=weights)
    else:
        ranks = rng.integers(0, workload.universe, size=n)
    items = universe[ranks].astype(np.int64)
    sites = None
    if workload.policy == "explicit":
        sites = rng.integers(0, workload.num_sites, size=n, dtype=np.int64)
    slots = None
    if workload.events_per_slot > 0.0:
        gaps = rng.exponential(1.0 / workload.events_per_slot, size=n)
        slots = np.floor(np.cumsum(gaps)).astype(np.int64)
    return Inputs(items=items, sites=sites, slots=slots,
                  batch_size=workload.batch_size)
