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

The facade's ingest, its same-slot repeat-drop rule (local push always
drops) and the snapshot rows come from
:class:`~repro.core.sliding.SlidingFacadeBase`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..structures.dominance import DominanceEntry, SortedDominanceSet
from .protocol import SampleResult, SamplerConfig, revive_element
from .sliding import SlidingFacadeBase, SlidingSiteBase

__all__ = [
    "LocalPushSite",
    "LocalPushCoordinator",
    "SlidingWindowBottomS",
]


class LocalPushSite(SlidingSiteBase):
    """A site that pushes every change of its local bottom-s.

    Args:
        site_id: Network address.
        hasher: Shared hash function.
        window: Window size w in slots.
        sample_size: Sample size s (>= 1).
    """

    __slots__ = ("_reported",)

    def __init__(
        self, site_id: int, hasher: UnitHasher, window: int, sample_size: int
    ) -> None:
        super().__init__(site_id, hasher, window, sample_size)
        self.candidates = SortedDominanceSet(sample_size)
        # element -> expiry most recently reported to the coordinator
        self._reported: dict[Any, int] = {}

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

    def sample_entries(self, now: int) -> list[DominanceEntry]:
        """The live bottom-s entries at slot ``now``, ascending by hash."""
        self.candidates.expire(now)
        return self.candidates.bottom(self.sample_size)


class SlidingWindowBottomS(SlidingFacadeBase):
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
        self._init_sliding(
            num_sites,
            window,
            sample_size,
            hasher,
            seed,
            algorithm,
            coordinator=lambda clock: LocalPushCoordinator(sample_size),
            site=lambda i: LocalPushSite(i, self.hasher, window, sample_size),
        )

    def _drops_repeats(self) -> bool:
        return True

    def sample(self) -> SampleResult:
        """The current window's bottom-s distinct sample."""
        return self._bottom_s_sample()

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
            "now": self.clock.now,
            "coordinator": {
                "reports_received": self.coordinator.reports_received,
                "entries": self._entry_rows(self.coordinator.candidates),
            },
            "sites": [
                {
                    "entries": self._entry_rows(site.candidates),
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
        coord_state = state["coordinator"]
        coordinator = {
            "reports_received": int(coord_state["reports_received"]),
            "candidates": self._load_rows(coord_state["entries"]),
        }
        sites = [
            {
                "candidates": self._load_rows(site_state["entries"]),
                "_reported": {
                    revive_element(element): int(expiry)
                    for element, expiry in site_state["reported"]
                },
                "reports_sent": int(site_state["reports_sent"]),
            }
            for site_state in state["sites"]
        ]
        self._commit_load(int(state["now"]), coordinator, sites)
