"""Sliding-window distinct sampling for general sample size ``s`` —
the *local-push* protocol.

The paper presents its sliding-window algorithm for ``s = 1`` and notes the
extension to larger samples is straightforward.  This module implements the
generalization along the lines of the paper's "Intuition" paragraph
(Section 4.1): each site continuously tracks its **local bottom-s** (the
``s`` smallest-hash live local distinct elements, maintained inside an
*s-dominance* candidate set) and informs the coordinator whenever its local
bottom-s gains an entry or an entry's expiry is refreshed.  The coordinator
merges all reports into its own s-dominance set; its live bottom-s is then
exactly the global bottom-s — a perfect without-replacement distinct sample
of size ``min(s, |D_w|)``.

Unlike Algorithms 3–4 there is **no coordinator feedback**: messages flow
one way.  For ``s = 1`` this is precisely the paper's pre-optimization
algorithm, making it the natural ablation baseline quantifying the value of
lazy feedback (see ``repro.experiments.ablations``).

Correctness sketch: a member ``g`` of the global bottom-s is live at some
site; fewer than ``s`` live elements hash below ``g`` globally, hence
locally at any site where ``g`` is live — so ``g`` survives local
s-dominance pruning *and* sits in the local bottom-s there, and the site
holding ``g``'s freshest occurrence reports that freshest expiry.  The
coordinator therefore knows every global bottom-s member with its current
expiry; s-dominance pruning at the coordinator never discards a current or
future bottom-s member.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher, unit_hash_batch
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .events import EventBatch
from .protocol import (
    Sampler,
    SampleResult,
    SamplerConfig,
    iter_event_runs,
    revive_element,
)

__all__ = [
    "LocalPushSite",
    "LocalPushCoordinator",
    "SlidingWindowBottomS",
]


class LocalPushSite:
    """A site that pushes every change of its local bottom-s.

    Args:
        site_id: Network address.
        hasher: Shared hash function.
        window: Window size w in slots.
        sample_size: Sample size s (>= 1).
    """

    __slots__ = (
        "site_id",
        "hasher",
        "window",
        "sample_size",
        "candidates",
        "_reported",
        "reports_sent",
    )

    def __init__(
        self, site_id: int, hasher: UnitHasher, window: int, sample_size: int
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.site_id = site_id
        self.hasher = hasher
        self.window = window
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        # element -> expiry most recently reported to the coordinator
        self._reported: dict[Any, int] = {}
        self.reports_sent = 0

    @property
    def memory_size(self) -> int:
        """Current candidate-set size |T_i|."""
        return len(self.candidates)

    def _sync_bottom(self, now: int, network: Network) -> None:
        """Report every (element, expiry) newly in the local bottom-s."""
        bottom = self.candidates.bottom(self.sample_size)
        live_elements = set()
        for entry in bottom:
            live_elements.add(entry.element)
            if self._reported.get(entry.element) != entry.expiry:
                self._reported[entry.element] = entry.expiry
                self.reports_sent += 1
                network.send(
                    self.site_id,
                    COORDINATOR,
                    MessageKind.SW_REPORT,
                    (entry.element, entry.hash, entry.expiry, self.site_id),
                )
        # Forget book-keeping for elements that left the bottom or expired,
        # so a later re-entry is re-reported.
        for element in [e for e in self._reported if e not in live_elements]:
            del self._reported[element]

    def tick(self, now: int, network: Network) -> None:
        """Slot-boundary maintenance: expire, then re-sync the bottom-s."""
        if self._reported:
            self.candidates.expire(now)
            self._sync_bottom(now, network)
            return
        # Nothing reported (an empty set, or a freshly resharded site):
        # re-sync only if expiry changed the pruned set.  len() settles
        # the candidates' deferred prune, so the branch above avoids it.
        before = len(self.candidates)
        self.candidates.expire(now)
        if len(self.candidates) != before:
            self._sync_bottom(now, network)

    def observe(self, element: Any, now: int, network: Network) -> None:
        """Process an arrival in slot ``now``."""
        self.observe_hashed(element, self.hasher.unit(element), now, network)

    def observe_hashed(
        self, element: Any, h: float, now: int, network: Network
    ) -> None:
        """Fast path: arrival with a precomputed hash."""
        self.candidates.expire(now)
        self.candidates.observe(element, now + self.window, h)
        self._sync_bottom(now, network)

    def handle_message(self, message: Message, network: Network) -> None:
        """Local-push sites receive no protocol messages."""
        raise ProtocolError(
            f"local-push site {self.site_id} received unexpected {message.kind!r}"
        )


class LocalPushCoordinator:
    """Merges site reports into a global s-dominance set.

    Args:
        sample_size: Sample size s.
    """

    __slots__ = ("sample_size", "candidates", "reports_received")

    def __init__(self, sample_size: int) -> None:
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        self.reports_received = 0

    def handle_message(self, message: Message, network: Network) -> None:
        if message.kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {message.kind!r}")
        element, h, expiry, _site_id = message.payload
        self.reports_received += 1
        self.candidates.observe(element, expiry, h)

    def query(self, now: int) -> list[Any]:
        """The window's distinct sample (size min(s, |D_w|)) at slot ``now``."""
        return [entry.element for entry in self.sample_entries(now)]

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The live bottom-s entries at slot ``now``, ascending by hash."""
        self.candidates.expire(now)
        return self.candidates.bottom(self.sample_size)


class SlidingWindowBottomS(Sampler):
    """Facade: general-s sliding-window distinct sampling (local push).

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots.
        sample_size: Sample size s (>= 1).
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        hasher: Optional shared pre-built hasher.
    """

    def __init__(
        self,
        num_sites: int,
        window: int,
        sample_size: int = 1,
        seed: int = 0,
        algorithm: str = "murmur2",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.hasher = hasher if hasher is not None else UnitHasher(seed, algorithm)
        self.window = window
        self.sample_size = sample_size
        self._now = 0
        self._init_runtime(
            Topology.build(
                coordinator=LocalPushCoordinator(sample_size),
                site_factory=lambda i: LocalPushSite(
                    i, self.hasher, window, sample_size
                ),
                num_sites=num_sites,
            )
        )

    # -- protocol hooks ----------------------------------------------------

    def _advance_to(self, slot: int) -> None:
        """Slot boundary: run per-site expiry + bottom-s re-sync."""
        self._now = slot
        network = self.network
        for site in self.sites:
            site.tick(slot, network)

    def _deliver(self, site_id: int, element: Any) -> None:
        """Deliver an arrival at the current slot."""
        self.sites[site_id].observe(element, self._now, self.network)

    def observe_batch(self, events) -> int:
        """Vectorized batch ingestion (semantics of the generic loop).

        Same-slot runs are bulk-hashed, and exact ``(site, element)``
        repeats within a run are dropped: a repeat's candidate refresh is
        a no-op (equal expiry) and the follow-up bottom-s sync therefore
        finds ``_reported`` already consistent — messages flow one way
        here, so nothing else can have invalidated it.  Covered by the
        batch-equivalence tests.
        """
        if isinstance(events, EventBatch):
            return self.observe_columns(events)
        events = events if isinstance(events, list) else list(events)
        if not events:
            return 0
        for slot, batch in iter_event_runs(events):
            if slot is not None:
                self.advance(slot)
            self._deliver_batch(batch)
        return len(events)

    def observe_columns(self, batch: EventBatch) -> int:
        """Columnar fast path: cached hash column + vectorized dedup."""
        batch.require_sites()
        batch.hash_column(self.hasher)  # hashed once; the runs slice it
        for slot, run in batch.slot_runs():
            if slot is not None:
                self.advance(slot)
            self._deliver_columns(run)
        return len(batch)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Columnar twin of :meth:`_deliver_batch` (dedup always valid
        here — messages flow one way, see :meth:`observe_batch`)."""
        if not len(run):
            return
        hashes = run.hash_column(self.hasher).tolist()
        site_ids = run.sites_list()
        items = run.items_list()
        now = self._now
        network = self.network
        sites = self.sites
        for j in run.first_occurrence_indices().tolist():
            sites[site_ids[j]].observe_hashed(items[j], hashes[j], now, network)

    def _deliver_batch(self, batch: list) -> None:
        """Deliver one same-slot run with precomputed hashes + dedup."""
        if not batch:
            return
        items = [item for _, item in batch]
        hashes = unit_hash_batch(self.hasher, items)
        now = self._now
        network = self.network
        sites = self.sites
        seen: set = set()
        for (site_id, item), h in zip(batch, hashes):
            key = (site_id, item)
            if key in seen:
                continue
            seen.add(key)
            sites[site_id].observe_hashed(item, h, now, network)

    def sample(self) -> SampleResult:
        """The current window's bottom-s distinct sample."""
        entries = self.coordinator.sample_entries(self._now)
        threshold = (
            entries[-1].hash if len(entries) == self.sample_size else 1.0
        )
        return SampleResult(
            items=tuple(entry.element for entry in entries),
            pairs=tuple((entry.hash, entry.element) for entry in entries),
            threshold=threshold,
            sample_size=self.sample_size,
            window=self.window,
            slot=self.current_slot,
        )

    def per_site_memory(self) -> list[int]:
        """Current candidate-set sizes, one per site."""
        return [site.memory_size for site in self.sites]

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="sliding-local-push",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            window=self.window,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
        )

    def _state(self) -> dict[str, Any]:
        return {
            "now": self._now,
            "coordinator": {
                "reports_received": self.coordinator.reports_received,
                "entries": [
                    [e.element, e.expiry, e.hash]
                    for e in self.coordinator.candidates.entries()
                ],
            },
            "sites": [
                {
                    "entries": [
                        [e.element, e.expiry, e.hash]
                        for e in site.candidates.entries()
                    ],
                    "reported": [
                        [element, expiry]
                        for element, expiry in site._reported.items()
                    ],
                    "reports_sent": site.reports_sent,
                }
                for site in self.sites
            ],
        }

    def _load(self, state: dict[str, Any]) -> None:
        self._now = int(state["now"])
        coord_state = state["coordinator"]
        self.coordinator.reports_received = int(coord_state["reports_received"])
        self.coordinator.candidates = SortedDominanceSet(self.sample_size)
        for e, exp, h in coord_state["entries"]:
            self.coordinator.candidates.observe(
                revive_element(e), int(exp), float(h)
            )
        for site, site_state in zip(self.sites, state["sites"]):
            site.candidates = SortedDominanceSet(self.sample_size)
            for e, exp, h in site_state["entries"]:
                site.candidates.observe(revive_element(e), int(exp), float(h))
            site._reported = {
                revive_element(element): int(expiry)
                for element, expiry in site_state["reported"]
            }
            site.reports_sent = int(site_state["reports_sent"])
