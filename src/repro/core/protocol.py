"""The unified sampler protocol: one lifecycle for every sampler variant.

Historically each sampler family grew its own surface —
``DistinctSamplerSystem.observe(site, e)`` + ``sample() -> list``,
``SlidingWindowSystem.process_slot(slot, arrivals)`` + ``query() -> e``,
divergent cost accessors — which forced every consumer (CLI, experiment
drivers, benchmarks, persistence) to special-case sampler classes.  This
module defines the single API all of them now share:

* :class:`Sampler` — the abstract base every system facade inherits.
  Lifecycle: :meth:`~Sampler.observe` / :meth:`~Sampler.observe_batch`
  ingest events, :meth:`~Sampler.advance` moves slotted time forward
  (a no-op for infinite-window samplers), :meth:`~Sampler.sample`
  returns a :class:`SampleResult`, and :meth:`~Sampler.stats` returns a
  :class:`SamplerStats`.  Persistence goes through
  :meth:`~Sampler.state_dict` / :meth:`~Sampler.load_state` plus the
  :attr:`~Sampler.config` property, which together let
  :mod:`repro.core.snapshot` checkpoint and restore *any* registered
  variant without knowing its class.
* :class:`SampleResult` — a frozen value object carrying the sample
  items, their ``(hash, item)`` pairs, the acceptance threshold, and
  window metadata.  It behaves as a read-only sequence of items so that
  existing comparisons against plain lists keep working.
* :class:`SamplerStats` — uniform cost accounting: messages by
  direction, bytes, per-site memory, and slots processed.
* :class:`SamplerConfig` — the declarative construction recipe consumed
  by :func:`repro.core.api.make_sampler`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError, ProtocolError
from ..netsim.message import MessageKind
from ..netsim.network import MessageStats, Network
from .events import EventBatch

if TYPE_CHECKING:  # runtime.topology imports this module back at call time
    from ..runtime.topology import Topology

__all__ = [
    "SampleResult",
    "SamplerStats",
    "SamplerConfig",
    "Sampler",
    "EXECUTORS",
    "iter_event_runs",
]

_INF = float("inf")

#: Execution backend names accepted by ``SamplerConfig.executor`` (see
#: :mod:`repro.runtime.executor` for the implementations).
EXECUTORS = ("serial", "thread", "process", "shm")


# ---------------------------------------------------------------------------
# Value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleResult:
    """The current sample, uniformly shaped across every variant.

    Attributes:
        items: Sample members, ascending by hash.  Without-replacement
            samples hold ``min(s, d)`` distinct items; with-replacement
            samples hold exactly ``s`` slots whose entries may be None
            while a copy has not yet seen an element.
        pairs: ``(hash, item)`` pairs for the members whose hash is
            known, ascending by hash (with-replacement: one pair per
            non-empty copy).
        threshold: The acceptance threshold ``u`` that a new element's
            hash must undercut to be reported (None when the variant has
            no single global threshold, e.g. with-replacement).
        sample_size: The configured sample size ``s``.
        window: Window size in slots, or None for infinite-window.
        slot: The slot the sample is current for (None before any
            slotted time exists / for infinite-window samplers).
        with_replacement: Whether items are independent draws.

    The object is also a read-only sequence over ``items`` and compares
    equal to plain lists/tuples of the same items, so pre-protocol call
    sites (``system.sample() == [...]``) keep working.
    """

    items: tuple[Any, ...]
    pairs: tuple[tuple[float, Any], ...] = ()
    threshold: Optional[float] = None
    sample_size: int = 1
    window: Optional[int] = None
    slot: Optional[int] = None
    with_replacement: bool = False

    # -- sequence behaviour over ``items`` --------------------------------

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def __contains__(self, item: Any) -> bool:
        return item in self.items

    def __getitem__(self, index: Any) -> Any:
        return self.items[index]

    def __bool__(self) -> bool:
        return bool(self.items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SampleResult):
            return self.items == other.items and self.pairs == other.pairs
        if isinstance(other, (list, tuple)):
            return list(self.items) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items)

    @property
    def first(self) -> Optional[Any]:
        """The minimum-hash member, or None if the sample is empty."""
        return self.items[0] if self.items else None


@dataclass(frozen=True)
class SamplerStats:
    """Uniform cost accounting across every sampler variant.

    Attributes:
        messages_total: All messages exchanged so far (the paper's cost
            metric).
        messages_to_coordinator: Site → coordinator messages.
        messages_to_sites: Coordinator → site messages.
        bytes_total: Sum of message sizes.
        per_site_memory: Current memory footprint per site, in stored
            entries (candidate-set sizes for sliding variants; 1 scalar
            threshold for infinite-window sites; summed across copies
            for with-replacement samplers).
        slots_processed: Distinct time slots advanced through (0 for a
            sampler that was never driven with slots).
    """

    messages_total: int
    messages_to_coordinator: int
    messages_to_sites: int
    bytes_total: int
    per_site_memory: tuple[int, ...]
    slots_processed: int

    @property
    def num_sites(self) -> int:
        """Number of sites k."""
        return len(self.per_site_memory)

    @property
    def memory_total(self) -> int:
        """Total entries held across all sites."""
        return sum(self.per_site_memory)


@dataclass(frozen=True)
class SamplerConfig:
    """Declarative recipe for :func:`repro.core.api.make_sampler`.

    Attributes:
        variant: Registry key (see ``repro.core.api.sampler_variants()``):
            ``"infinite"``, ``"sliding"``, ``"sliding-feedback"``,
            ``"sliding-local-push"``, ``"with-replacement"``,
            ``"broadcast"``, or ``"caching"``.
        num_sites: Number of distributed sites k (>= 1).
        sample_size: Sample size s (>= 1).
        window: Window size w in slots; 0 means infinite window.
            Sliding variants require ``window >= 1``.
        seed: Hash seed (fix it for reproducible runs).
        algorithm: Hash algorithm name (see ``repro.hashing``).
        structure: Candidate-set backing store for the s = 1 sliding
            system (``"treap"``/``"sorted"``).
        coordinator_mode: ``"exact"``/``"paper"`` for the s = 1 sliding
            system (see :mod:`repro.core.sliding`).
        cache_size: Per-site LRU capacity for the ``"caching"`` variant
            (None selects the variant default, ``sample_size``).
        shards: Number of independent coordinator groups S (>= 1).  Only
            ``sharded:*`` variants accept ``shards > 1`` (see
            :mod:`repro.runtime.sharded`).
        executor: Execution backend for the sharded batch-ingest path
            (see :data:`EXECUTORS` and :mod:`repro.runtime.executor`):
            ``"serial"`` (in-process, the default), ``"thread"`` (a
            thread pool over the NumPy kernels), ``"process"`` (a
            multiprocessing pool, per-batch pickling), or ``"shm"``
            (persistent workers over zero-copy shared-memory columns).
            Non-serial backends apply to ``sharded:*`` variants only.
        workers: Worker count W for the non-serial executors (0 = auto);
            ignored by the serial executor.
    """

    variant: str = "infinite"
    num_sites: int = 1
    sample_size: int = 1
    window: int = 0
    seed: int = 0
    algorithm: str = "murmur2"
    structure: str = "treap"
    coordinator_mode: str = "exact"
    cache_size: Optional[int] = None
    shards: int = 1
    executor: str = "serial"
    workers: int = 0

    def validate(self) -> "SamplerConfig":
        """Check variant-independent invariants; returns self.

        Raises:
            ConfigurationError: On any out-of-range field.
        """
        if self.num_sites < 1:
            raise ConfigurationError(
                f"num_sites must be >= 1, got {self.num_sites}"
            )
        if self.sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        if self.window < 0:
            raise ConfigurationError(f"window must be >= 0, got {self.window}")
        if self.cache_size is not None and self.cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable), used by snapshots."""
        return asdict(self)


# ---------------------------------------------------------------------------
# State-dict encoding helpers (JSON-safe, no pickle)
# ---------------------------------------------------------------------------


def encode_expiry(value: float) -> Optional[float]:
    """Encode an expiry stamp; ``inf`` becomes None for strict JSON."""
    return None if value == _INF else value


def decode_expiry(value: Optional[float]) -> float:
    """Inverse of :func:`encode_expiry`; a non-number raises ValueError."""
    if value is None:
        return _INF
    if not isinstance(value, (int, float)):
        raise ValueError(f"expiry must be a number or None, got {value!r}")
    return value


def revive_element(element: Any) -> Any:
    """Undo JSON's tuple→list coercion for tuple-valued elements."""
    if isinstance(element, list):
        return tuple(revive_element(item) for item in element)
    return element


def stats_state(network: Network) -> dict[str, Any]:
    """Capture a network's message counters as a JSON-safe dict."""
    stats = network.stats
    return {
        "total_messages": stats.total_messages,
        "total_bytes": stats.total_bytes,
        "site_to_coordinator": stats.site_to_coordinator,
        "coordinator_to_site": stats.coordinator_to_site,
        "by_kind": {kind.name: count for kind, count in stats.by_kind.items()},
    }


def parse_stats_state(state: dict[str, Any]) -> MessageStats:
    """The counters captured by :func:`stats_state`, as fresh
    :class:`MessageStats` (an unknown ``by_kind`` name raises KeyError)."""
    stats = MessageStats(
        total_messages=int(state["total_messages"]),
        total_bytes=int(state["total_bytes"]),
        site_to_coordinator=int(state["site_to_coordinator"]),
        coordinator_to_site=int(state["coordinator_to_site"]),
    )
    for name, count in state.get("by_kind", {}).items():
        stats.by_kind[MessageKind[name]] = int(count)
    return stats


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

#: An ingestion event: ``(site_id, item)`` delivered at the current slot,
#: or ``(site_id, item, slot)`` advancing time first.
Event = Union[tuple[Any, ...], Sequence[Any]]


def iter_event_runs(
    events: Iterable[Event],
) -> Iterator[tuple[Optional[int], list[tuple[Any, Any]]]]:
    """Group an event sequence into ``(slot, [(site, item), ...])`` runs.

    A run collects consecutive events delivered at the same protocol time:
    slot-stamped events open a new run whenever their slot differs from the
    run's slot; unstamped 2-tuples always join the current run.  Replaying
    ``advance(slot)`` (when ``slot`` is not None) followed by the run's
    deliveries reproduces, event for event, what the generic
    :meth:`Sampler.observe_batch` loop does — including *where* a
    non-monotone slot stamp raises, since earlier runs have already been
    delivered by then.  The vectorized ``observe_batch`` overrides use this
    to get whole same-slot batches they can bulk-hash and pre-filter.

    Yields:
        ``(slot, batch)`` pairs where ``slot`` is None for a run delivered
        at the current slot without advancing, and ``batch`` is a list of
        ``(site_id, item)`` pairs in arrival order.
    """
    pending_slot: Optional[int] = None
    run: list[tuple[Any, Any]] = []
    for event in events:
        # Mirror the generic loop's branch exactly: anything that is not
        # a 2-tuple is treated as slot-stamped via event[2].
        if len(event) != 2 and event[2] != pending_slot:
            if run or pending_slot is not None:
                yield pending_slot, run
                run = []
            pending_slot = event[2]
        run.append((event[0], event[1]))
    if run or pending_slot is not None:
        yield pending_slot, run


class Sampler(ABC):
    """Abstract base class for every distributed sampler facade.

    Single-group facades build a :class:`~repro.runtime.topology.Topology`
    and call :meth:`_init_runtime` at the end of their ``__init__``;
    composite facades (with-replacement copies, sharded groups) own no
    topology of their own and call :meth:`_init_protocol` directly,
    overriding :meth:`message_stats`.  Subclasses implement the small
    hook surface (:meth:`_deliver`, :meth:`_advance_to`, :meth:`sample`,
    :meth:`config`, :meth:`_state`, :meth:`_load`); the base class
    provides the uniform lifecycle and accounting on top.
    """

    # -- construction ------------------------------------------------------

    def _init_protocol(self) -> None:
        """Initialize the lifecycle bookkeeping (call last in __init__)."""
        self._last_slot: Optional[int] = None
        self._slots_processed = 0

    def _init_runtime(self, topology: "Topology") -> None:
        """Adopt a wired :class:`~repro.runtime.topology.Topology`.

        The topology becomes the canonical owner of the transport and the
        node roster; :attr:`network`, :attr:`coordinator`, and
        :attr:`sites` read through it.
        """
        self.topology = topology
        self._init_protocol()

    # -- runtime delegation ------------------------------------------------

    @property
    def network(self) -> Network:
        """The topology's transport (canonical; settable for rewiring)."""
        return self.topology.network

    @network.setter
    def network(self, network: Network) -> None:
        # DelayedNetwork.rewire swaps the transport under a live system;
        # routing the assignment through the topology keeps it canonical.
        self.topology.adopt_network(network)

    @property
    def coordinator(self) -> Any:
        """The topology's coordinator node."""
        return self.topology.coordinator

    @property
    def sites(self) -> list[Any]:
        """The topology's site roster, indexed by site id."""
        return self.topology.sites

    # -- lifecycle ---------------------------------------------------------

    def observe(self, site_id: int, item: Any, *, slot: Optional[int] = None) -> None:
        """Deliver ``item`` to site ``site_id``.

        Args:
            site_id: Destination site (0-based).
            item: The stream element.
            slot: Optional slot stamp; when given, time is advanced to
                ``slot`` (as by :meth:`advance`) before delivery.
        """
        if slot is not None:
            self.advance(slot)
        self._deliver(site_id, item)

    def observe_batch(self, events: Iterable[Event]) -> int:
        """Deliver a batch of events; returns the number delivered.

        Each event is ``(site_id, item)`` — delivered at the current
        slot — or ``(site_id, item, slot)``.  An
        :class:`~repro.core.events.EventBatch` is dispatched to
        :meth:`observe_columns` instead.  Subclasses may override with a
        vectorized fast path; semantics must match this loop (the
        equivalence is covered by the conformance tests).
        """
        if isinstance(events, EventBatch):
            return self.observe_columns(events)
        count = 0
        for event in events:
            if len(event) == 2:
                self._deliver(event[0], event[1])
            else:
                self.advance(event[2])
                self._deliver(event[0], event[1])
            count += 1
        return count

    def observe_columns(self, batch: EventBatch) -> int:
        """Deliver a columnar batch; returns the number delivered.

        The base implementation replays the batch as tuple events, so
        every variant accepts :class:`~repro.core.events.EventBatch`
        input and equivalence with the tuple path holds by construction.
        Cores with a true columnar fast path (precomputed hash columns,
        no tuple materialization) override this.
        """
        # The one sanctioned tuple fallback: correctness-by-construction
        # for variants that have no columnar override yet.
        return self.observe_batch(batch.to_events())  # repro-lint: disable=RPR001

    def advance(self, slot: int) -> None:
        """Advance slotted time to ``slot`` and run boundary maintenance.

        Idempotent per slot; slots must be non-decreasing.  For
        infinite-window samplers this only tracks the slot counter.

        Raises:
            ProtocolError: If ``slot`` is before the current slot (time
                never rewinds in the synchronized-clock model).
        """
        slot = int(slot)
        if self._last_slot is not None:
            if slot < self._last_slot:
                raise ProtocolError(
                    f"slots must be non-decreasing: now at {self._last_slot}, "
                    f"got {slot}"
                )
            if slot == self._last_slot:
                return
        self._advance_to(slot)
        self._last_slot = slot
        self._slots_processed += 1

    @abstractmethod
    def sample(self) -> SampleResult:
        """The current sample as a :class:`SampleResult`."""

    def sample_columns(self) -> tuple[npt.NDArray[np.float64], list[Any]]:
        """The current sample as parallel columns, ascending by hash.

        Returns ``(hashes, items)`` where ``hashes`` is a float64 array
        and ``items`` the matching elements, both in the same ascending
        hash order :meth:`sample` reports.  This is the merge-side fast
        path for composite facades (:class:`~repro.runtime.sharded
        .ShardedSampler` concatenates the groups' columns and selects
        the global bottom-``s`` with array kernels instead of sorting
        tuples).  The default builds the columns from :meth:`sample`;
        cores whose sample store already holds a sorted backing list
        override it to slice that list directly.
        """
        pairs = self.sample().pairs
        if not pairs:
            return np.empty(0, dtype=np.float64), []
        hashes, items = zip(*pairs)
        return np.asarray(hashes, dtype=np.float64), list(items)

    def message_stats(self) -> MessageStats:
        """THE message-cost counters (canonical, via the runtime topology).

        Composite facades override this with an aggregate over their
        groups' topologies; every other cost accessor
        (:meth:`stats`, :attr:`total_messages`) derives from it.
        """
        return self.topology.message_stats()

    def stats(self) -> SamplerStats:
        """Uniform cost counters as a :class:`SamplerStats`."""
        stats = self.message_stats()
        return SamplerStats(
            messages_total=stats.total_messages,
            messages_to_coordinator=stats.site_to_coordinator,
            messages_to_sites=stats.coordinator_to_site,
            bytes_total=stats.total_bytes,
            per_site_memory=tuple(self._per_site_memory()),
            slots_processed=self._slots_processed,
        )

    # -- hooks -------------------------------------------------------------

    @abstractmethod
    def _deliver(self, site_id: int, item: Any) -> None:
        """Deliver one item to a site at the current slot."""

    def _advance_to(self, slot: int) -> None:
        """Move protocol time to ``slot`` (infinite window: nothing to do)."""

    def _per_site_memory(self) -> list[int]:
        """Per-site entry counts; sliding sites expose ``memory_size``."""
        return [getattr(site, "memory_size", 1) for site in self.sites]

    # -- introspection -----------------------------------------------------

    @property
    @abstractmethod
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` that reconstructs this sampler."""

    @property
    def current_slot(self) -> Optional[int]:
        """The last slot advanced to (None if never slotted)."""
        return self._last_slot

    @property
    def num_sites(self) -> int:
        """Number of sites k."""
        return len(self.sites)

    @property
    def total_messages(self) -> int:
        """Total messages exchanged so far (the paper's cost metric)."""
        return self.message_stats().total_messages

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Full logical state as a JSON-serializable dict (no pickle)."""
        return {
            "protocol": {
                "last_slot": self._last_slot,
                "slots_processed": self._slots_processed,
            },
            "network": stats_state(self.network),
            "system": self._state(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`.

        Every field is parsed before anything is assigned; a variant's
        :meth:`_load` parses its own fields before it commits them, so a
        malformed state leaves the sampler as it was.

        Raises:
            ConfigurationError: If the state dict is malformed.
        """
        try:
            protocol = state["protocol"]
            last_slot = protocol.get("last_slot")
            last_slot = None if last_slot is None else int(last_slot)
            slots_processed = int(protocol.get("slots_processed", 0))
            stats = parse_stats_state(state["network"])
            self._load(state["system"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigurationError(f"malformed sampler state: {exc}") from exc
        self._last_slot = last_slot
        self._slots_processed = slots_processed
        self.network.stats = stats

    @abstractmethod
    def _state(self) -> dict[str, Any]:
        """Variant-specific state (JSON-serializable)."""

    @abstractmethod
    def _load(self, state: dict[str, Any]) -> None:
        """Restore variant-specific state captured by :meth:`_state`."""
