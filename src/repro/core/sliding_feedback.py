"""General-s sliding-window sampling with lazy feedback.

The full generalization of Algorithms 3–4 to sample size ``s >= 1``,
combining the two devices this package already has:

* every node (sites *and* the coordinator) maintains an **s-dominance
  set** of live candidates;
* the coordinator's replies carry a *threshold with an expiry*:
  ``u`` = the s-th smallest live hash it knows (1.0 while it knows fewer
  than ``s``), valid until ``t_u`` = the earliest expiry among its
  current bottom-s — the first moment the threshold could *rise*.

Protocol:

* **Site, arrival ``e`` at slot ``t``:** refresh ``(e, t+w)`` in ``T_i``;
  report ``(e, h(e), t+w)`` iff ``h(e) < u_i``.
* **Coordinator, report:** merge into its candidate set, then reply
  ``(u, t_u)``.
* **Site, slot boundary:** if ``t_i <= now`` (threshold validity
  expired), push its **entire local bottom-s** (up to ``s`` reports —
  each a constant-size message, counted individually) and adopt the last
  reply.  On the synchronous network the push is delivered as one run
  (:meth:`~repro.netsim.network.Network.send_run`): the coordinator
  merges all of it, computes one ``(u, t_u)`` and answers with a run of
  as many identical replies.  Nothing runs between the round trips of a
  push, so this ends in the same state, with the same messages counted,
  as answering each report separately — only the intermediate replies,
  which the site overwrites unseen, are skipped.  Delayed networks still
  carry the push report by report.

Correctness (checked against a brute-force oracle every slot): suppose
``g`` is in the true global bottom-s at slot ``t`` and lives at site
``j``.  If ``h(g) >= u_j`` with ``t_j > t``, then the coordinator
bottom-s that produced ``(u_j, t_j)`` consists of ``s`` elements, each
with hash ``<= u_j <= h(g)`` and expiry ``>= t_j > t`` — i.e. ``s`` live
elements all hashing below ``g``, contradicting ``g``'s membership.  So
either ``g`` cleared the threshold when it (last) arrived and was
reported fresh, or site ``j``'s validity lapsed by ``t`` and its
fallback pushed its local bottom-s, which provably contains ``g``
(s-dominance cannot evict a global bottom-s member).  Either way the
coordinator knows ``g`` with a current expiry.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Optional, Sequence

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher, unit_hash_batch
from ..netsim.clock import SlotClock
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .events import EventBatch
from .protocol import (
    Sampler,
    SampleResult,
    SamplerConfig,
    decode_expiry,
    encode_expiry,
    iter_event_runs,
    revive_element,
)

__all__ = [
    "FeedbackBottomSSite",
    "FeedbackBottomSCoordinator",
    "SlidingWindowBottomSFeedback",
]

_INF = math.inf
_EXPIRY = attrgetter("expiry")


class FeedbackBottomSSite:
    """Per-site protocol: s-dominance candidates + expiring threshold."""

    __slots__ = (
        "site_id",
        "hasher",
        "window",
        "sample_size",
        "candidates",
        "u_local",
        "valid_until",
        "reports_sent",
        "fallbacks",
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
        self.u_local = 1.0
        self.valid_until: float = _INF
        self.reports_sent = 0
        self.fallbacks = 0

    @property
    def memory_size(self) -> int:
        """Current candidate-set size |T_i|."""
        return len(self.candidates)

    def tick(self, now: int, network: Network) -> None:
        """Slot boundary: on threshold lapse, push the local bottom-s."""
        if self.valid_until > now:
            return
        self.fallbacks += 1
        self.candidates.expire(now)
        bottom = self.candidates.bottom(self.sample_size)
        if not bottom:
            self.u_local = 1.0
            self.valid_until = _INF
            return
        # Each push is answered; the last reply leaves the freshest
        # (u, t_u).  Conservatively reset the threshold first so replies
        # rule.
        self.u_local = 1.0
        self.valid_until = _INF
        site_id = self.site_id
        self.reports_sent += len(bottom)
        network.send_run(
            site_id,
            COORDINATOR,
            MessageKind.SW_REPORT,
            [(e.element, e.hash, e.expiry, site_id) for e in bottom],
        )

    def observe(self, element: Any, now: int, network: Network) -> None:
        """Process an arrival in slot ``now``."""
        self.observe_hashed(element, self.hasher.unit(element), now, network)

    def observe_hashed(
        self, element: Any, h: float, now: int, network: Network
    ) -> None:
        """Fast path: arrival with a precomputed hash."""
        expiry = now + self.window
        self.candidates.expire(now)
        self.candidates.observe(element, expiry, h)
        if h < self.u_local:
            self.reports_sent += 1
            network.send(
                self.site_id,
                COORDINATOR,
                MessageKind.SW_REPORT,
                (element, h, expiry, self.site_id),
            )

    def handle_message(self, message: Message, network: Network) -> None:
        """Adopt the coordinator's (threshold, validity) reply."""
        if message.kind is not MessageKind.SW_SAMPLE:
            raise ProtocolError(
                f"feedback site {self.site_id} cannot handle {message.kind!r}"
            )
        u, valid_until = message.payload
        self.u_local = u
        self.valid_until = valid_until

    def handle_run(
        self,
        src: int,
        kind: MessageKind,
        payloads: Sequence[Any],
        network: Network,
    ) -> None:
        """Adopt the last reply of a run (it overwrites the others)."""
        if kind is not MessageKind.SW_SAMPLE:
            raise ProtocolError(
                f"feedback site {self.site_id} cannot handle {kind!r}"
            )
        self.u_local, self.valid_until = payloads[-1]


class FeedbackBottomSCoordinator:
    """Coordinator: s-dominance candidate set + expiring threshold replies."""

    __slots__ = ("clock", "sample_size", "candidates", "reports_received")

    def __init__(self, clock: SlotClock, sample_size: int) -> None:
        if sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {sample_size}"
            )
        self.clock = clock
        self.sample_size = sample_size
        self.candidates = SortedDominanceSet(sample_size)
        self.reports_received = 0

    def _threshold(self, now: int) -> tuple[float, float]:
        """Current ``(u, valid_until)`` over live candidates."""
        return self.threshold_of(self.sample_entries(now))

    def threshold_of(self, bottom: list[DominanceEntry]) -> tuple[float, float]:
        """``(u, valid_until)`` of a live bottom-s from :meth:`sample_entries`."""
        if len(bottom) < self.sample_size:
            return 1.0, _INF
        return bottom[-1].hash, min(map(_EXPIRY, bottom))

    def handle_message(self, message: Message, network: Network) -> None:
        """Merge a report; reply with the fresh (u, t_u)."""
        if message.kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {message.kind!r}")
        element, h, expiry, site_id = message.payload
        self.reports_received += 1
        now = self.clock.now
        self.candidates.observe(element, expiry, h)
        u, valid_until = self._threshold(now)
        network.send(
            COORDINATOR, site_id, MessageKind.SW_SAMPLE, (u, valid_until)
        )

    def handle_run(
        self,
        src: int,
        kind: MessageKind,
        payloads: Sequence[Any],
        network: Network,
    ) -> None:
        """Merge a pushed bottom-s; answer with one (u, t_u) per report.

        The site overwrites every reply but the last unseen, so the
        threshold is computed once, after the whole merge.
        """
        if kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {kind!r}")
        self.reports_received += len(payloads)
        observe = self.candidates.observe
        for element, h, expiry, site_id in payloads:
            observe(element, expiry, h)
        reply = self._threshold(self.clock.now)
        network.send_run(
            COORDINATOR, site_id, MessageKind.SW_SAMPLE, [reply] * len(payloads)
        )

    def query(self, now: int) -> list[Any]:
        """The window's bottom-s distinct sample, ascending by hash."""
        return [entry.element for entry in self.sample_entries(now)]

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The live bottom-s entries at slot ``now``, ascending by hash."""
        self.candidates.expire(now)
        return self.candidates.bottom(self.sample_size)


class SlidingWindowBottomSFeedback(Sampler):
    """Facade: general-s sliding-window sampling with lazy feedback.

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
        self.clock = SlotClock(0)
        self._init_runtime(
            Topology.build(
                coordinator=FeedbackBottomSCoordinator(self.clock, sample_size),
                site_factory=lambda i: FeedbackBottomSSite(
                    i, self.hasher, window, sample_size
                ),
                num_sites=num_sites,
            )
        )

    # -- protocol hooks ----------------------------------------------------

    def _advance_to(self, slot: int) -> None:
        """Slot boundary: lapse-triggered fallback pushes at every site."""
        self.clock.advance_to(slot)
        network = self.network
        for site in self.sites:
            site.tick(slot, network)

    def _deliver(self, site_id: int, element: Any) -> None:
        """Deliver an arrival at the current slot."""
        self.sites[site_id].observe(element, self.clock.now, self.network)

    def observe_batch(self, events) -> int:
        """Vectorized batch ingestion (semantics of the generic loop).

        Same-slot runs are bulk-hashed and delivered through the
        precomputed-hash fast path.  Unlike the ``s = 1`` system, repeats
        are *not* dropped: the expiring threshold ``u_i`` can rise within
        a slot (a reply is 1.0 while the coordinator knows fewer than
        ``s`` candidates), so a same-slot repeat may legitimately report
        where its first occurrence did not.
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
        """Columnar fast path: cached hash column, no dedup (see above)."""
        batch.require_sites()
        batch.hash_column(self.hasher)  # hashed once; the runs slice it
        for slot, run in batch.slot_runs():
            if slot is not None:
                self.advance(slot)
            self._deliver_columns(run)
        return len(batch)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Columnar twin of :meth:`_deliver_batch` (repeats kept)."""
        if not len(run):
            return
        hashes = run.hash_column(self.hasher).tolist()
        now = self.clock.now
        network = self.network
        sites = self.sites
        for site_id, item, h in zip(run.sites_list(), run.items_list(), hashes):
            sites[site_id].observe_hashed(item, h, now, network)

    def _deliver_batch(self, batch: list) -> None:
        """Deliver one same-slot run with precomputed hashes."""
        if not batch:
            return
        items = [item for _, item in batch]
        hashes = unit_hash_batch(self.hasher, items)
        now = self.clock.now
        network = self.network
        sites = self.sites
        for (site_id, item), h in zip(batch, hashes):
            sites[site_id].observe_hashed(item, h, now, network)

    def sample(self) -> SampleResult:
        """The current window's bottom-s distinct sample."""
        coordinator = self.coordinator
        entries = coordinator.sample_entries(self.clock.now)
        threshold, _valid_until = coordinator.threshold_of(entries)
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
            variant="sliding-feedback",
            num_sites=self.num_sites,
            sample_size=self.sample_size,
            window=self.window,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
        )

    def _state(self) -> dict[str, Any]:
        return {
            "clock": self.clock.now,
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
                    "u_local": site.u_local,
                    "valid_until": encode_expiry(site.valid_until),
                    "reports_sent": site.reports_sent,
                    "fallbacks": site.fallbacks,
                }
                for site in self.sites
            ],
        }

    def _load(self, state: dict[str, Any]) -> None:
        self.clock.advance_to(int(state["clock"]))
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
            site.u_local = float(site_state["u_local"])
            site.valid_until = decode_expiry(site_state["valid_until"])
            site.reports_sent = int(site_state["reports_sent"])
            site.fallbacks = int(site_state["fallbacks"])
