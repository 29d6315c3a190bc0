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

The facade's ingest, its same-slot repeat-drop rule (feedback never
drops) and the snapshot rows come from
:class:`~repro.core.sliding.SlidingFacadeBase`.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Optional, Sequence

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.clock import SlotClock
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .events import EventBatch
from .protocol import SampleResult, SamplerConfig, decode_expiry, encode_expiry
from .sliding import SlidingFacadeBase, SlidingSiteBase

__all__ = [
    "FeedbackBottomSSite",
    "FeedbackBottomSCoordinator",
    "SlidingWindowBottomSFeedback",
]

_INF = math.inf
_EXPIRY = attrgetter("expiry")


class FeedbackBottomSSite(SlidingSiteBase):
    """Per-site protocol: s-dominance candidates + expiring threshold.

    Arrivals take the inherited Algorithm 3 path: report iff
    ``h(e) < u_i``.
    """

    __slots__ = ("u_local", "valid_until", "fallbacks")

    def __init__(
        self, site_id: int, hasher: UnitHasher, window: int, sample_size: int
    ) -> None:
        super().__init__(site_id, hasher, window, sample_size)
        self.candidates = SortedDominanceSet(sample_size)
        self.u_local = 1.0
        self.valid_until: float = _INF
        self.fallbacks = 0

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

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The live bottom-s entries at slot ``now``, ascending by hash."""
        self.candidates.expire(now)
        return self.candidates.bottom(self.sample_size)


class SlidingWindowBottomSFeedback(SlidingFacadeBase):
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
        self._init_sliding(
            num_sites,
            window,
            sample_size,
            hasher,
            seed,
            algorithm,
            coordinator=lambda clock: FeedbackBottomSCoordinator(
                clock, sample_size
            ),
            site=lambda i: FeedbackBottomSSite(i, self.hasher, window, sample_size),
        )

    def _drops_repeats(self) -> bool:
        return False

    def observe_columns(self, batch: EventBatch) -> int:
        """Columnar fast path (the shared loop, repeats kept)."""
        # Own attribute so the benchmark's layer trace can wrap it here.
        return super().observe_columns(batch)

    def sample(self) -> SampleResult:
        """The current window's bottom-s distinct sample."""
        return self._bottom_s_sample()

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
                "entries": self._entry_rows(self.coordinator.candidates),
            },
            "sites": [
                {
                    "entries": self._entry_rows(site.candidates),
                    "u_local": site.u_local,
                    "valid_until": encode_expiry(site.valid_until),
                    "reports_sent": site.reports_sent,
                    "fallbacks": site.fallbacks,
                }
                for site in self.sites
            ],
        }

    def _load(self, state: dict[str, Any]) -> None:
        coord_state = state["coordinator"]
        coordinator = {
            "reports_received": int(coord_state["reports_received"]),
            "candidates": self._load_rows(coord_state["entries"]),
        }
        sites = [
            {
                "candidates": self._load_rows(site_state["entries"]),
                "u_local": float(site_state["u_local"]),
                "valid_until": decode_expiry(site_state["valid_until"]),
                "reports_sent": int(site_state["reports_sent"]),
                "fallbacks": int(site_state["fallbacks"]),
            }
            for site_state in state["sites"]
        ]
        self._commit_load(int(state["clock"]), coordinator, sites)
