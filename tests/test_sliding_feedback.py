"""Tests for the general-s lazy-feedback sliding-window system."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CentralizedWindowSampler, make_sampler
from repro.core.events import EventBatch
from repro.core.sliding_feedback import SlidingWindowBottomSFeedback
from repro.core.sliding_general import SlidingWindowBottomS
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import COORDINATOR, Message, MessageKind, Network


def random_schedule(rng, num_sites, universe, slots, max_per_slot=5):
    for slot in range(1, slots + 1):
        burst = int(rng.integers(0, max_per_slot))
        yield slot, [
            (int(rng.integers(0, num_sites)), int(rng.integers(0, universe)))
            for _ in range(burst)
        ]


class TestExactness:
    @pytest.mark.parametrize("sample_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_oracle_every_slot(self, sample_size, seed):
        hasher = UnitHasher(seed * 31 + sample_size)
        system = SlidingWindowBottomSFeedback(
            num_sites=3, window=20, sample_size=sample_size, hasher=hasher
        )
        oracle = CentralizedWindowSampler(20, sample_size, hasher)
        rng = np.random.default_rng(seed)
        for slot, arrivals in random_schedule(rng, 3, 50, 500):
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert system.sample() == oracle.sample(), f"slot {slot}"

    def test_heavy_churn_tiny_window(self):
        hasher = UnitHasher(99)
        system = SlidingWindowBottomSFeedback(
            num_sites=2, window=3, sample_size=3, hasher=hasher
        )
        oracle = CentralizedWindowSampler(3, 3, hasher)
        rng = np.random.default_rng(9)
        for slot, arrivals in random_schedule(rng, 2, 12, 400, max_per_slot=7):
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert system.sample() == oracle.sample()

    def test_window_empties(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=2, window=5, sample_size=3, seed=2
        )
        system.advance(1)
        system.observe_batch([(0, "a"), (1, "b")])
        assert system.sample() == sorted(
            ["a", "b"], key=system.hasher.unit
        )
        for slot in range(2, 12):
            system.advance(slot)
        assert system.sample() == []


class TestThresholdInvariants:
    def test_site_threshold_always_safe(self):
        # Whenever a site's threshold is valid (t_i > now), there exist s
        # live elements (at the coordinator) hashing below u_i — so a
        # skipped arrival could not be in the global bottom-s.
        hasher = UnitHasher(10)
        system = SlidingWindowBottomSFeedback(
            num_sites=3, window=15, sample_size=3, hasher=hasher
        )
        rng = np.random.default_rng(3)
        for slot, arrivals in random_schedule(rng, 3, 40, 400):
            system.advance(slot)
            system.observe_batch(arrivals)
            coordinator = system.coordinator
            u, valid = coordinator._threshold(slot)
            for site in system.sites:
                if site.valid_until > slot and site.u_local < 1.0:
                    # Site threshold is some past (u, t_u) with t_u > now:
                    # its backing bottom-s is still live, so the current
                    # coordinator u can only be <= the site's view.
                    assert u <= site.u_local + 1e-15

    def test_messages_two_way(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=3, window=15, sample_size=2, seed=4
        )
        rng = np.random.default_rng(1)
        for slot, arrivals in random_schedule(rng, 3, 40, 300):
            system.advance(slot)
            system.observe_batch(arrivals)
        stats = system.network.stats
        assert stats.total_messages == 2 * stats.site_to_coordinator
        assert stats.by_kind[MessageKind.SW_REPORT] == stats.site_to_coordinator


class TestVsLocalPush:
    def test_same_samples_different_costs(self):
        hasher = UnitHasher(11)
        feedback = SlidingWindowBottomSFeedback(
            num_sites=4, window=25, sample_size=3, hasher=hasher
        )
        push = SlidingWindowBottomS(
            num_sites=4, window=25, sample_size=3, hasher=hasher
        )
        rng = np.random.default_rng(5)
        schedule = list(random_schedule(rng, 4, 60, 600))
        for slot, arrivals in schedule:
            feedback.advance(slot)
            feedback.observe_batch(arrivals)
            push.advance(slot)
            push.observe_batch(arrivals)
            assert feedback.sample() == list(push.sample().items)
        # Both are exact; costs differ by strategy, not correctness.
        assert feedback.total_messages > 0
        assert push.total_messages > 0


class OneByOneNetwork(Network):
    """Delivers a run as separate sends: the semantics before runs."""

    __slots__ = ()

    def send_run(self, src, dst, kind, payloads, size_bytes=16):
        for payload in payloads:
            self.send(src, dst, kind, payload, size_bytes)


def rewire(system, network_cls):
    """Move every coordinator group of ``system`` onto a fresh
    ``network_cls`` transport (before any traffic)."""
    for group in getattr(system, "groups", [system]):
        net = network_cls()
        net.register(COORDINATOR, group.coordinator)
        for site in group.sites:
            net.register(site.site_id, site)
        group.network = net
    return system


def observable(system):
    return (
        system.stats(),
        system.message_stats(),
        system.state_dict(),
        system.sample(),
    )


# Skewed keys (a few hot ones) refresh candidates; slot gaps up to 9
# lapse many sites' thresholds in the same slot.
_events = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.one_of(st.integers(0, 4), st.integers(0, 60)),
        st.sampled_from([0, 0, 0, 1, 1, 2, 3, 9]),
    ),
    min_size=1,
    max_size=30,
)


def _batches(events_per_batch, num_sites):
    slot, batches = 0, []
    for events in events_per_batch:
        batch = []
        for site, key, gap in events:
            slot += gap
            batch.append((site % num_sites, key, slot))
        batches.append(batch)
    return batches


def drive_twins(variant, num_sites, window, sample_size, batches, columnar,
                **kwargs):
    """Run ``variant`` on run delivery and on one-by-one delivery and
    assert they agree after every batch."""
    twins = [
        rewire(
            make_sampler(variant, num_sites=num_sites, window=window,
                         sample_size=sample_size, seed=7, **kwargs),
            network_cls,
        )
        for network_cls in (Network, OneByOneNetwork)
    ]
    for batch in batches:
        for system in twins:
            if columnar:
                site_ids, items, slots = zip(*batch)
                system.observe_batch(EventBatch(items, site_ids, slots))
            else:
                for site, item, slot in batch:
                    system.observe(site, item, slot=slot)
        runs, one_by_one = (observable(system) for system in twins)
        assert runs == one_by_one
    return twins


class TestRunDelivery:
    """A lapsed site's push delivered as one run ends exactly where the
    message-by-message round trips end."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_sites=st.integers(1, 4),
        sample_size=st.sampled_from([1, 2, 4, 8]),
        window=st.sampled_from([1, 3, 8]),
        columnar=st.booleans(),
        events_per_batch=st.lists(_events, min_size=1, max_size=6),
    )
    def test_runs_match_one_by_one(
        self, num_sites, sample_size, window, columnar, events_per_batch
    ):
        drive_twins(
            "sliding-feedback", num_sites, window, sample_size,
            _batches(events_per_batch, num_sites), columnar,
        )

    @pytest.mark.parametrize("columnar", [False, True])
    def test_sharded_runs_match_one_by_one(self, columnar):
        rng = np.random.default_rng(5)
        slot, batches = 0, []
        for _ in range(40):
            batch = []
            for _ in range(int(rng.integers(1, 12))):
                slot += int(rng.choice([0, 0, 1, 2, 7]))
                key = int(rng.zipf(1.5)) % 200
                batch.append((int(rng.integers(0, 3)), key, slot))
            batches.append(batch)
        runs, _ = drive_twins(
            "sharded:sliding-feedback", 3, 4, 4, batches, columnar, shards=2
        )
        fallbacks = sum(
            site.fallbacks for group in runs.groups for site in group.sites
        )
        assert fallbacks > 0  # the runs were exercised

    def test_lapse_pushes_bottom_s_and_adopts_final_threshold(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=1, window=5, sample_size=3, seed=4
        )
        for element in range(6):
            system.observe(0, element, slot=1)
        for element in range(6, 12):
            system.observe(0, element, slot=3)
        site = system.sites[0]
        assert site.valid_until == 6
        before = system.message_stats().snapshot()
        system.advance(6)  # the threshold lapsed: push the local bottom-3
        after = system.message_stats()
        assert site.fallbacks == 1
        assert after.site_to_coordinator - before.site_to_coordinator == 3
        assert after.coordinator_to_site - before.coordinator_to_site == 3
        coordinator = system.coordinator
        assert (site.u_local, site.valid_until) == coordinator.threshold_of(
            coordinator.sample_entries(6)
        )


class TestErrors:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomSFeedback(num_sites=0, window=5, sample_size=1)
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomSFeedback(num_sites=2, window=0, sample_size=1)
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomSFeedback(num_sites=2, window=5, sample_size=0)

    def test_foreign_messages_rejected(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=1, window=5, sample_size=1, seed=6
        )
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(
                Message(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5),
                system.network,
            )
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(
                Message(0, COORDINATOR, MessageKind.REPORT, None),
                system.network,
            )
        with pytest.raises(ProtocolError):
            system.sites[0].handle_run(
                COORDINATOR, MessageKind.THRESHOLD, [0.5], system.network
            )
        with pytest.raises(ProtocolError):
            system.coordinator.handle_run(
                0, MessageKind.REPORT, [None], system.network
            )
        assert system.total_messages == 0


class TestFactoryIntegration:
    def test_registry_dispatch(self):
        from repro import make_sampler
        from repro.core.sliding import SlidingWindowSystem

        assert isinstance(
            make_sampler("sliding", num_sites=2, window=10), SlidingWindowSystem
        )
        assert isinstance(
            make_sampler("sliding", num_sites=2, window=10, sample_size=4),
            SlidingWindowBottomSFeedback,
        )
        assert isinstance(
            make_sampler(
                "sliding-local-push", num_sites=2, window=10, sample_size=4
            ),
            SlidingWindowBottomS,
        )
