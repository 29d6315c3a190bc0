"""Sliding-window distributed distinct sampling (paper Algorithms 3 & 4).

Maintains, over a time-based window of ``w`` slots, the live distinct
element with the *smallest hash* (the paper presents sample size ``s = 1``;
see :mod:`repro.core.sliding_general` for the ``s >= 1`` generalization and
:mod:`repro.core.with_replacement` for with-replacement samples of any
size).

Protocol sketch (paper Section 4.1):

* Each **site** keeps a dominance-pruned candidate set ``T_i`` (everything
  that could still become the window minimum — expected size
  ``O(log |D_i|)`` by Lemma 10) plus its view ``(e_i, u_i, t_i)`` of the
  global sample: element, hash, and the slot at which it *expires*.
* On an arrival ``e`` at slot ``t``: refresh/insert ``(e, t + w)`` in
  ``T_i``; report to the coordinator iff ``h(e) < u_i``.
* The **coordinator** keeps one ``(e*, u*, t*)``.  A report replaces it iff
  the reported hash is smaller **or** the current sample has expired; the
  reply always carries the (possibly new) global sample *and its expiry* —
  the lazy-feedback trick that lets every synced site wake up exactly when
  the global sample dies, instead of requiring a broadcast.
* At each slot boundary a site whose view has expired (``t_i <= now``)
  falls back to its local candidate set: it selects the min-hash entry of
  ``T_i``, pushes it, and adopts the coordinator's reply.

Expiry convention: an element observed at slot ``t`` is live for queries at
slots ``t .. t+w-1`` and carries expiry stamp ``t + w``; "live at ``now``"
means ``expiry > now``.  (The thesis' pseudocode is off by one against its
own window definition ``S_i^w(t) = arrivals in (t-w, t]``; we follow the
definition.)

**Coordinator modes — a reproduction finding.**  Algorithm 4 as printed
keeps a *single* tuple ``(e*, t*)``.  That loses information: if the
coordinator abandons sample ``a`` for a smaller-hash report ``b`` whose
expiry is *earlier* (``b`` arrived before ``a`` did — e.g. a fallback push
of an older element), then when ``b`` dies only sites synced to ``b`` wake
up; ``a`` survives solely at its observing site, which sleeps until ``a``'s
own expiry — so for a period the coordinator serves a live but
*non-minimal* element, i.e. not the defined distinct sample.  (The thesis
proves space and message bounds for this algorithm but never a sliding-
window correctness lemma; the gap is real and our differential tests
trigger it within a few hundred slots.)  The repair is the paper's own
device one level up: the coordinator keeps a *dominance set* of reported
entries (expected size ``O(log d_w)``) instead of one tuple.  Both variants
are provided:

* ``coordinator_mode="exact"`` (default) — dominance-set coordinator;
  after each slot's processing the sample provably equals the minimum-hash
  live distinct element (the tests check this against a brute-force
  oracle at every slot).
* ``coordinator_mode="paper"`` — the literal Algorithm 4 single tuple;
  the sample is always a *live* window element and re-synchronizes at
  fallback storms, but can transiently be non-minimal.

Message costs of the two modes are nearly identical (see the
``ablation_sync`` experiment); the figures use ``exact``.

The facade plumbing this system shares with the general-``s`` variants —
batch and columnar ingest, the same-slot repeat-drop rule with its
proofs, and the candidate sets' snapshot rows — is
:class:`SlidingFacadeBase`.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Any, Callable, Optional

from ..errors import ConfigurationError, ProtocolError
from ..hashing.unit import UnitHasher, unit_hash_batch
from ..netsim.clock import SlotClock
from ..netsim.message import COORDINATOR, Message, MessageKind
from ..netsim.network import Network
from ..runtime.topology import Topology
from ..structures.dominance import SortedDominanceSet, TreapDominanceSet
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

# SortedDominanceSet doubles as the exact coordinator's candidate store.

__all__ = [
    "SlidingFacadeBase",
    "SlidingSiteBase",
    "SlidingWindowSite",
    "SlidingWindowCoordinator",
    "SlidingWindowSystem",
]

_INF = math.inf


def _make_structure(kind: str):
    if kind == "treap":
        return TreapDominanceSet(1)
    if kind == "sorted":
        return SortedDominanceSet(1)
    raise ConfigurationError(
        f"unknown dominance structure {kind!r}; expected 'treap' or 'sorted'"
    )


class SlidingSiteBase:
    """Shared site plumbing: validated construction, the candidate set
    ``T_i`` and its size, and the hashing :meth:`observe` entry.

    Subclasses declare their own extra slots and set :attr:`candidates`.
    The inherited :meth:`observe_hashed` is Algorithm 3's arrival, which
    the threshold-feedback sites share (it reads their ``u_local``); the
    local-push site, which has no threshold, overrides it.
    """

    __slots__ = (
        "site_id",
        "hasher",
        "window",
        "sample_size",
        "candidates",
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
        self.reports_sent = 0

    @property
    def memory_size(self) -> int:
        """Current candidate-set size |T_i| (the paper's memory metric)."""
        return len(self.candidates)

    def observe(self, element: Any, now: int, network: Network) -> None:
        """Process an arrival in slot ``now``."""
        self.observe_hashed(element, self.hasher.unit(element), now, network)

    def observe_hashed(
        self, element: Any, h: float, now: int, network: Network
    ) -> None:
        """Fast path: arrival with a precomputed hash (Algorithm 3 lines
        3-15): refresh ``(e, now + w)`` in ``T_i``; report iff
        ``h(e) < u_i``."""
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


class SlidingWindowSite(SlidingSiteBase):
    """Algorithm 3: the per-site sliding-window protocol.

    Args:
        site_id: Network address.
        hasher: Shared hash function.
        window: Window size w in slots (>= 1).
        structure: ``"treap"`` (paper-faithful) or ``"sorted"`` backing
            store for the candidate set ``T_i``.
    """

    __slots__ = ("sample_element", "u_local", "sample_expiry", "fallbacks")

    def __init__(
        self,
        site_id: int,
        hasher: UnitHasher,
        window: int,
        structure: str = "treap",
    ) -> None:
        super().__init__(site_id, hasher, window, 1)
        self.candidates = _make_structure(structure)
        self.sample_element: Optional[Any] = None
        self.u_local = 1.0
        self.sample_expiry: float = _INF
        self.fallbacks = 0

    def tick(self, now: int, network: Network) -> None:
        """Slot-boundary maintenance (Algorithm 3 lines 21-25).

        If the site's view of the global sample has expired, fall back to
        the local candidate set: select the min-hash live entry, adopt it
        provisionally, and push it to the coordinator (whose reply, handled
        synchronously, re-syncs ``(e_i, u_i, t_i)`` to the global sample).
        """
        if self.sample_expiry > now:
            return
        self.fallbacks += 1
        self.candidates.expire(now)
        entry = self.candidates.min_entry()
        if entry is None:
            # Nothing live locally; accept the next arrival unconditionally.
            self.sample_element = None
            self.u_local = 1.0
            self.sample_expiry = _INF
            return
        self.sample_element = entry.element
        self.u_local = entry.hash
        self.sample_expiry = entry.expiry
        self.reports_sent += 1
        network.send(
            self.site_id,
            COORDINATOR,
            MessageKind.SW_REPORT,
            (entry.element, entry.hash, entry.expiry, self.site_id),
        )

    def handle_message(self, message: Message, network: Network) -> None:
        """Adopt the coordinator's sample reply (Algorithm 3 lines 16-20)."""
        if message.kind is not MessageKind.SW_SAMPLE:
            raise ProtocolError(
                f"sliding-window site {self.site_id} cannot handle {message.kind!r}"
            )
        element, h, expiry = message.payload
        self.sample_element = element
        self.u_local = h
        self.sample_expiry = expiry
        # Algorithm 3 line 18: the global sample joins the local candidates,
        # pruning local entries it dominates (they can never be the global
        # minimum while it lives).
        self.candidates.observe(element, expiry, h)


class SlidingWindowCoordinator:
    """The coordinator's sliding-window protocol.

    Two modes (see the module docstring for the background):

    * ``"exact"`` — reported entries accumulate in a dominance set; the
      sample is its live minimum.  Replies carry that minimum and *its*
      expiry.
    * ``"paper"`` — the literal Algorithm 4 single tuple ``(e*, u*, t*)``,
      replaced iff a report hashes lower or the tuple has expired.

    Args:
        clock: Shared slot clock (used to detect sample expiry).
        mode: ``"exact"`` or ``"paper"``.
    """

    __slots__ = (
        "clock",
        "mode",
        "candidates",
        "sample_element",
        "u_star",
        "sample_expiry",
        "reports_received",
    )

    def __init__(self, clock: SlotClock, mode: str = "exact") -> None:
        if mode not in ("exact", "paper"):
            raise ConfigurationError(
                f"coordinator mode must be 'exact' or 'paper', got {mode!r}"
            )
        self.clock = clock
        self.mode = mode
        self.candidates = SortedDominanceSet(1) if mode == "exact" else None
        self.sample_element: Optional[Any] = None
        self.u_star = 1.0
        self.sample_expiry: float = -1.0  # expired from the start
        self.reports_received = 0

    def _refresh_exact(self, now: int) -> None:
        self.candidates.expire(now)
        entry = self.candidates.min_entry()
        if entry is None:
            self.sample_element = None
            self.u_star = 1.0
            self.sample_expiry = -1.0
        else:
            self.sample_element = entry.element
            self.u_star = entry.hash
            self.sample_expiry = entry.expiry

    def handle_message(self, message: Message, network: Network) -> None:
        """Absorb a site report; always reply with the global sample."""
        if message.kind is not MessageKind.SW_REPORT:
            raise ProtocolError(f"coordinator cannot handle {message.kind!r}")
        element, h, expiry, site_id = message.payload
        self.reports_received += 1
        now = self.clock.now
        if self.mode == "exact":
            self.candidates.observe(element, expiry, h)
            self._refresh_exact(now)
        else:
            if self.sample_expiry <= now or h < self.u_star:
                self.sample_element = element
                self.u_star = h
                self.sample_expiry = expiry
        network.send(
            COORDINATOR,
            site_id,
            MessageKind.SW_SAMPLE,
            (self.sample_element, self.u_star, self.sample_expiry),
        )

    def query(self) -> Optional[Any]:
        """The current window's distinct sample, or None if the window is
        empty (or, in paper mode, the tuple expired with no replacement)."""
        now = self.clock.now
        if self.mode == "exact":
            self._refresh_exact(now)
        if self.sample_expiry <= now:
            return None
        return self.sample_element

    @property
    def memory_size(self) -> int:
        """Coordinator candidate-set size (1 in paper mode)."""
        if self.candidates is None:
            return 1
        return len(self.candidates)


class SlidingFacadeBase(Sampler):
    """Shared facade plumbing for the three sliding-window systems.

    :class:`SlidingWindowSystem` (``s = 1``),
    :class:`~repro.core.sliding_feedback.SlidingWindowBottomSFeedback`
    and :class:`~repro.core.sliding_general.SlidingWindowBottomS`
    (local push) differ only in their site and coordinator protocols.
    Everything around those lives here: the shared hasher and
    :class:`~repro.netsim.clock.SlotClock`, the slot-boundary site ticks,
    single, tuple-batch and columnar delivery, per-site memory, and the
    candidate sets' snapshot rows.

    Batch ingestion splits the events into same-slot runs, hashes each
    run in bulk (the columnar path warms the batch's hash column once)
    and hands every event to its site's precomputed-hash entry, exactly
    as looping :meth:`observe` would — the batch-equivalence tests pin
    this for both network flavours.  The one shortcut is dropping an
    exact ``(site, element)`` repeat within a run where
    :meth:`_drops_repeats` proves it changes nothing.  That rule follows
    from the protocol and the network, never from an option:

    * ``s = 1`` drops repeats iff ``network.synchronous``.  The site
      threshold ``u_i`` is non-increasing within a slot (every
      coordinator reply carries a hash no larger than the reported one),
      so a same-slot repeat can never report and its candidate refresh
      is a no-op.  That proof needs the reply to land *before* the
      repeat; on a delay-tolerant network the generic loop really does
      re-report, so nothing is dropped there.
    * Local push always drops them.  A repeat's candidate refresh is a
      no-op (equal expiry) and the follow-up bottom-s sync therefore
      finds the site's reported set already consistent — messages flow
      one way, so nothing else can have invalidated it.
    * Feedback never does.  Its expiring threshold ``u_i`` can *rise*
      within a slot (a reply is 1.0 while the coordinator knows fewer
      than ``s`` candidates), so a same-slot repeat may legitimately
      report where its first occurrence did not.

    Subclasses wire their nodes through :meth:`_init_sliding` and supply
    :meth:`_drops_repeats`, :meth:`sample`, :attr:`config`,
    :meth:`_state` and :meth:`_load`.  A ``_load`` parses every field
    first (candidate sets through :meth:`_load_rows`) and only then
    assigns them with :meth:`_commit_load`, so a malformed state raises
    before anything changes.
    """

    def _init_sliding(
        self,
        num_sites: int,
        window: int,
        sample_size: int,
        hasher: Optional[UnitHasher],
        seed: int,
        algorithm: str,
        coordinator: Callable[[SlotClock], Any],
        site: Callable[[int], Any],
    ) -> None:
        """Validate, build the hasher and clock, and wire the topology.

        ``coordinator(clock)`` builds the coordinator node and
        ``site(site_id)`` each site (it may read :attr:`hasher`).
        """
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
                coordinator=coordinator(self.clock),
                site_factory=site,
                num_sites=num_sites,
            )
        )

    @abstractmethod
    def _drops_repeats(self) -> bool:
        """Whether a same-slot ``(site, element)`` repeat may be dropped."""

    # -- protocol hooks ----------------------------------------------------

    def _advance_to(self, slot: int) -> None:
        """Slot boundary: advance the clock, then tick every site."""
        self.clock.advance_to(slot)
        network = self.network
        for site in self.sites:
            site.tick(slot, network)

    def _deliver(self, site_id: int, element: Any) -> None:
        """Deliver an arrival at the current slot."""
        self.sites[site_id].observe(element, self.clock.now, self.network)

    def observe_batch(self, events) -> int:
        """Vectorized batch ingestion (semantics of the generic loop)."""
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
        """Columnar fast path: one cached hash column, sliced per run."""
        batch.require_sites()
        batch.hash_column(self.hasher)  # hashed once; the runs slice it
        for slot, run in batch.slot_runs():
            if slot is not None:
                self.advance(slot)
            self._deliver_columns(run)
        return len(batch)

    def _deliver_columns(self, run: EventBatch) -> None:
        """Deliver one same-slot columnar run (repeats per the rule)."""
        if not len(run):
            return
        hashes = run.hash_column(self.hasher).tolist()
        site_ids = run.sites_list()
        items = run.items_list()
        now = self.clock.now
        network = self.network
        sites = self.sites
        if not self._drops_repeats():
            for site_id, item, h in zip(site_ids, items, hashes):
                sites[site_id].observe_hashed(item, h, now, network)
            return
        for j in run.first_occurrence_indices().tolist():
            sites[site_ids[j]].observe_hashed(items[j], hashes[j], now, network)

    def _deliver_batch(self, batch: list) -> None:
        """Deliver one same-slot tuple run (repeats per the rule)."""
        if not batch:
            return
        items = [item for _, item in batch]
        hashes = unit_hash_batch(self.hasher, items)
        now = self.clock.now
        network = self.network
        sites = self.sites
        if not self._drops_repeats():
            for (site_id, item), h in zip(batch, hashes):
                sites[site_id].observe_hashed(item, h, now, network)
            return
        seen: set = set()
        for (site_id, item), h in zip(batch, hashes):
            key = (site_id, item)
            if key in seen:
                continue
            seen.add(key)
            sites[site_id].observe_hashed(item, h, now, network)

    def per_site_memory(self) -> list[int]:
        """Current candidate-set sizes, one per site (Fig 5.7/5.9 metric)."""
        return [site.memory_size for site in self.sites]

    def _bottom_s_sample(self) -> SampleResult:
        """The coordinator's live bottom-s (general-``s`` variants); the
        threshold is the s-th smallest live hash, 1.0 below s entries."""
        entries = self.coordinator.sample_entries(self.clock.now)
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

    # -- persistence helpers -----------------------------------------------

    @staticmethod
    def _entry_rows(store: Any) -> list:
        """A candidate set as JSON-safe ``[element, expiry, hash]`` rows."""
        return [[e.element, e.expiry, e.hash] for e in store.entries()]

    def _load_rows(self, rows: list, store: Any = None) -> Any:
        """A fresh candidate set holding snapshot ``rows``.

        ``store`` defaults to an empty s-dominance set; a malformed row
        raises before the caller commits anything.
        """
        if store is None:
            store = SortedDominanceSet(self.sample_size)
        for element, expiry, h in rows:
            store.observe(revive_element(element), int(expiry), float(h))
        return store

    def _commit_load(
        self, now: int, coordinator: dict[str, Any], sites: list[dict[str, Any]]
    ) -> None:
        """Assign parsed node attributes: the last step of a ``_load``."""
        self.clock.reset(now)
        nodes = (self.coordinator, *self.sites)
        for node, attrs in zip(nodes, (coordinator, *sites)):
            for name, value in attrs.items():
                setattr(node, name, value)


class SlidingWindowSystem(SlidingFacadeBase):
    """Facade: k sliding-window sites + coordinator on one network.

    Drive it slot by slot::

        system = SlidingWindowSystem(num_sites=10, window=100, seed=7)
        for slot, arrivals in schedule:          # arrivals: [(site, elem)]
            system.advance(slot)
            system.observe_batch(arrivals)
            sample = system.sample()             # SampleResult (s = 1)

    Args:
        num_sites: Number of sites k.
        window: Window size w in slots.
        seed: Hash seed (ignored if ``hasher`` given).
        algorithm: Hash algorithm name.
        structure: Candidate-set backing store (``"treap"``/``"sorted"``).
        coordinator_mode: ``"exact"`` (default, provably correct) or
            ``"paper"`` (literal Algorithm 4) — see the module docstring.
        hasher: Optional shared pre-built hasher.
    """

    def __init__(
        self,
        num_sites: int,
        window: int,
        seed: int = 0,
        algorithm: str = "murmur2",
        structure: str = "treap",
        coordinator_mode: str = "exact",
        hasher: Optional[UnitHasher] = None,
    ) -> None:
        self.structure = structure
        self.coordinator_mode = coordinator_mode
        self._init_sliding(
            num_sites,
            window,
            1,
            hasher,
            seed,
            algorithm,
            coordinator=lambda clock: SlidingWindowCoordinator(
                clock, coordinator_mode
            ),
            site=lambda i: SlidingWindowSite(i, self.hasher, window, structure),
        )

    def _drops_repeats(self) -> bool:
        return self.network.synchronous

    def sample(self) -> SampleResult:
        """The window's distinct sample (at most one item for s = 1)."""
        element = self.coordinator.query()
        if element is None:
            items: tuple = ()
            pairs: tuple = ()
            threshold = 1.0
        else:
            threshold = self.coordinator.u_star
            items = (element,)
            pairs = ((threshold, element),)
        return SampleResult(
            items=items,
            pairs=pairs,
            threshold=threshold,
            sample_size=1,
            window=self.window,
            slot=self.current_slot,
        )

    # -- protocol: construction recipe + persistence -----------------------

    @property
    def config(self) -> SamplerConfig:
        """The :class:`SamplerConfig` reconstructing this system."""
        return SamplerConfig(
            variant="sliding",
            num_sites=self.num_sites,
            sample_size=1,
            window=self.window,
            seed=self.hasher.seed,
            algorithm=self.hasher.algorithm,
            structure=self.structure,
            coordinator_mode=self.coordinator_mode,
        )

    def _state(self) -> dict[str, Any]:
        coord = self.coordinator
        return {
            "clock": self.clock.now,
            "coordinator": {
                "reports_received": coord.reports_received,
                "sample": [
                    coord.sample_element,
                    coord.u_star,
                    encode_expiry(coord.sample_expiry),
                ],
                "entries": (
                    None
                    if coord.candidates is None
                    else self._entry_rows(coord.candidates)
                ),
            },
            "sites": [
                {
                    "entries": self._entry_rows(site.candidates),
                    "sample_element": site.sample_element,
                    "u_local": site.u_local,
                    "sample_expiry": encode_expiry(site.sample_expiry),
                    "reports_sent": site.reports_sent,
                    "fallbacks": site.fallbacks,
                }
                for site in self.sites
            ],
        }

    def _load(self, state: dict[str, Any]) -> None:
        coord_state = state["coordinator"]
        element, u_star, expiry = coord_state["sample"]
        coordinator = {
            "reports_received": int(coord_state["reports_received"]),
            "sample_element": revive_element(element),
            "u_star": float(u_star),
            "sample_expiry": decode_expiry(expiry),
            "candidates": (
                None
                if self.coordinator.candidates is None
                else self._load_rows(coord_state["entries"])
            ),
        }
        sites = [
            {
                "candidates": self._load_rows(
                    site_state["entries"], _make_structure(self.structure)
                ),
                "sample_element": revive_element(site_state["sample_element"]),
                "u_local": float(site_state["u_local"]),
                "sample_expiry": decode_expiry(site_state["sample_expiry"]),
                "reports_sent": int(site_state["reports_sent"]),
                "fallbacks": int(site_state["fallbacks"]),
            }
            for site_state in state["sites"]
        ]
        self._commit_load(int(state["clock"]), coordinator, sites)
