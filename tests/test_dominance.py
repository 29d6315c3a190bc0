"""Differential tests for the dominance sets.

Both implementations are checked against the brute-force s-dominance
filter after arbitrary interleavings of observe/expire operations, and
against each other (s = 1).  ``SortedDominanceSet`` prunes lazily, so it
is also checked against a twin that forces the prune after every
operation: no read may tell the two apart.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.dominance import (
    _GROWTH,
    SortedDominanceSet,
    TreapDominanceSet,
    brute_force_survivors,
)

IMPLS = [SortedDominanceSet, TreapDominanceSet]


def _raw(ds):
    return [(e.element, e.expiry, e.hash) for e in ds.entries()]


class TestBruteForceReference:
    def test_simple_domination(self):
        entries = [("a", 5, 0.9), ("b", 10, 0.1)]
        # a expires before b and hashes above it: dominated.
        assert brute_force_survivors(entries, 1) == [("b", 10, 0.1)]

    def test_equal_expiry_never_dominates(self):
        entries = [("a", 5, 0.9), ("b", 5, 0.1)]
        assert len(brute_force_survivors(entries, 1)) == 2

    def test_s2_needs_two_dominators(self):
        entries = [("a", 5, 0.9), ("b", 10, 0.1), ("c", 11, 0.2)]
        assert brute_force_survivors(entries, 2) == [
            ("b", 10, 0.1),
            ("c", 11, 0.2),
        ]
        assert ("a", 5, 0.9) in brute_force_survivors(entries, 3)


@pytest.mark.parametrize("impl", IMPLS)
class TestBasics:
    def test_empty(self, impl):
        ds = impl(1)
        assert len(ds) == 0
        assert ds.min_entry() is None
        assert ds.bottom(3) == []
        assert "x" not in ds

    def test_observe_and_min(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.5)
        ds.observe("b", 12, 0.2)
        assert ds.min_entry().element == "b"
        assert "a" not in ds  # dominated by b (later expiry, smaller hash)
        assert "b" in ds

    def test_staircase_retained(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.2)
        ds.observe("b", 12, 0.5)  # later expiry, larger hash: both stay
        assert len(ds) == 2
        assert ds.min_entry().element == "a"

    def test_expire(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.2)
        ds.observe("b", 12, 0.5)
        ds.expire(10)  # expiry <= now goes away
        assert "a" not in ds
        assert "b" in ds
        ds.expire(12)
        assert len(ds) == 0

    def test_refresh_extends_life(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.5)
        ds.observe("a", 20, 0.5)
        assert len(ds) == 1
        assert ds.entries()[0].expiry == 20

    def test_refresh_earlier_ignored(self, impl):
        ds = impl(1)
        ds.observe("a", 20, 0.5)
        ds.observe("a", 10, 0.5)
        assert ds.entries()[0].expiry == 20

    def test_newcomer_dominated_not_kept(self, impl):
        ds = impl(1)
        ds.observe("a", 20, 0.1)
        ds.observe("b", 10, 0.9)  # earlier expiry, larger hash: dominated
        assert "b" not in ds
        assert len(ds) == 1

    def test_bottom_order(self, impl):
        ds = impl(1)
        ds.observe("a", 10, 0.3)
        ds.observe("b", 20, 0.4)
        ds.observe("c", 30, 0.5)
        bottom = ds.bottom(2)
        assert [e.element for e in bottom] == ["a", "b"]


class TestSortedGeneralS:
    def test_s_validation(self):
        with pytest.raises(ValueError):
            SortedDominanceSet(0)

    def test_treap_rejects_s2(self):
        with pytest.raises(ValueError):
            TreapDominanceSet(2)

    def test_s2_keeps_two_smallest_always(self):
        ds = SortedDominanceSet(2)
        rng = np.random.default_rng(0)
        live = {}
        for t in range(1, 300):
            element = int(rng.integers(0, 60))
            h = float(rng.random())
            # Hash must be a function of the element.
            h = (element * 2654435761 % 2**32) / 2**32
            ds.observe(element, t + 25, h)
            live[element] = t + 25
            ds.expire(t)
            live = {e: exp for e, exp in live.items() if exp > t}
            want = sorted(
                ((e * 2654435761 % 2**32) / 2**32, e) for e in live
            )[:2]
            got = [(e.hash, e.element) for e in ds.bottom(2)]
            assert got == want


@pytest.mark.parametrize("impl", IMPLS)
class TestDifferentialVsBruteForce:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 15),  # element id
                st.integers(1, 40),  # arrival slot (expiry = arrival + 10)
            ),
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, impl, arrivals):
        # Hashes are a deterministic function of the element id.
        def h(element):
            return ((element * 0x9E3779B1) % 2**32) / 2**32

        ds = impl(1)
        arrivals = sorted(arrivals, key=lambda a: a[1])
        live: dict[int, int] = {}
        now = 0
        for element, slot in arrivals:
            if slot > now:
                now = slot
                ds.expire(now - 1)  # expire strictly-before entries
            ds.observe(element, slot + 10, h(element))
            live[element] = max(live.get(element, 0), slot + 10)
            current = [
                (e, exp, h(e)) for e, exp in live.items() if exp > now - 1
            ]
            assert _raw(ds) == brute_force_survivors(current, 1)

    def test_cross_implementation_agreement(self, impl):
        rng = np.random.default_rng(7)
        a = SortedDominanceSet(1)
        b = TreapDominanceSet(1)
        for t in range(1, 500):
            for _ in range(int(rng.integers(0, 3))):
                element = int(rng.integers(0, 40))
                h = ((element * 0x9E3779B1) % 2**32) / 2**32
                a.observe(element, t + 15, h)
                b.observe(element, t + 15, h)
            a.expire(t)
            b.expire(t)
            assert _raw(a) == _raw(b)


@pytest.mark.parametrize("impl", IMPLS)
class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 50)),
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_check_invariants(self, impl, arrivals):
        def h(element):
            return ((element * 0x45D9F3B) % 2**32) / 2**32

        ds = impl(1)
        for element, slot in sorted(arrivals, key=lambda a: a[1]):
            ds.expire(slot - 1)
            ds.observe(element, slot + 8, h(element))
            ds.check_invariants()


class TestExpectedSize:
    """Lemma 10: expected size is H_M = O(log M)."""

    def test_size_logarithmic(self):
        rng = np.random.default_rng(5)
        sizes = []
        for trial in range(30):
            ds = SortedDominanceSet(1)
            hashes = rng.random(500)
            # 500 distinct elements, arrival order random, window large.
            for i, h in enumerate(hashes):
                ds.observe(i, 10_000 + i, float(h))
            sizes.append(len(ds))
        mean_size = sum(sizes) / len(sizes)
        # H_500 ≈ 6.79; allow generous slack.
        assert 3.0 <= mean_size <= 12.0, mean_size


def _tuples(entries):
    return [e.as_tuple() for e in entries]


def _tie_hash(element):
    # Nine hash classes over elements 0..17: e and e + 9 share a hash.
    return (((element % 9) * 0x9E3779B1) % 2**32) / 2**32


_COORDINATOR_OPS = st.lists(
    st.one_of(
        # Report (element, expiry = now + delta): expiries arrive out of
        # order, as fallback pushes and fresh arrivals interleave.
        st.tuples(st.just("observe"), st.integers(0, 17), st.integers(1, 40)),
        st.tuples(st.just("expire"), st.integers(0, 3), st.just(0)),
    ),
    max_size=80,
)


class TestLazyPruneUnobservable:
    """Deferred pruning must not change any read (see the read contract)."""

    @given(st.sampled_from([1, 2, 4]), _COORDINATOR_OPS)
    @settings(max_examples=150, deadline=None)
    def test_reading_twin_agrees_with_lazy_twin(self, s, ops):
        reading = SortedDominanceSet(s)  # len() after every operation
        lazy = SortedDominanceSet(s)  # never asked for the pruned set
        live: dict[int, int] = {}  # element -> max live expiry
        now = 0
        for op, a, b in ops:
            if op == "observe":
                element, expiry = a, now + b
                for ds in (reading, lazy):
                    ds.observe(element, expiry, _tie_hash(element))
                live[element] = max(live.get(element, expiry), expiry)
            else:
                now += a
                for ds in (reading, lazy):
                    ds.expire(now)
                live = {e: exp for e, exp in live.items() if exp > now}
            len(reading)

            assert _tuples(lazy.bottom(s)) == _tuples(reading.bottom(s))
            want_min = reading.min_entry()
            got_min = lazy.min_entry()
            assert (got_min is None) == (want_min is None)
            if want_min is not None:
                assert got_min.as_tuple() == want_min.as_tuple()

            # Pruning reads go to a copy so the lazy twin stays unpruned.
            settled = copy.deepcopy(lazy)
            assert _tuples(settled.entries()) == _tuples(reading.entries())
            # Hash ties come out in stable-sort order over (expiry, hash).
            stable = sorted(settled.entries(), key=lambda e: e.hash)
            assert _tuples(lazy.bottom(s)) == _tuples(stable[:s])
            assert _tuples(settled.bottom(s + 3)) == _tuples(
                reading.bottom(s + 3)
            )
            expected = brute_force_survivors(
                [(e, exp, _tie_hash(e)) for e, exp in live.items()], s
            )
            assert sorted(_tuples(reading.entries())) == sorted(expected)
            settled.check_invariants()
            reading.check_invariants()

    def test_hash_ties_follow_stable_sort_over_expiry_order(self):
        ds = SortedDominanceSet(1)
        ds.observe("a", 10, 0.5)
        ds.observe("b", 10, 0.5)  # appended after its equal key
        ds.observe("z", 20, 0.9)
        ds.observe("c", 10, 0.5)  # bisected in front of its equal keys
        ds.observe("d", 5, 0.5)
        # Equal hashes never dominate each other, so all five survive.
        assert [e.element for e in ds.bottom(1)] == ["d"]
        assert ds.min_entry().element == "d"
        assert [e.element for e in ds.bottom(5)] == ["d", "c", "a", "b", "z"]
        stable = sorted(ds.entries(), key=lambda e: e.hash)
        assert ds.bottom(5) == stable
        ds.expire(5)
        assert [e.element for e in ds.bottom(3)] == ["c", "a", "b"]

    def test_bottom_beyond_s_excludes_dominated(self):
        ds = SortedDominanceSet(1)
        ds.observe("a", 10, 0.5)
        ds.observe("b", 12, 0.2)  # dominates a; no prune has run yet
        assert [e.element for e in ds.bottom(1)] == ["b"]
        assert [e.element for e in ds.bottom(2)] == ["b"]
        assert [e.element for e in ds.bottom(10)] == ["b"]

        ds = SortedDominanceSet(2)
        ds.observe("a", 5, 0.9)
        ds.observe("b", 10, 0.1)
        ds.observe("c", 11, 0.2)  # a now has two dominators
        ds.observe("d", 12, 0.95)
        assert [e.element for e in ds.bottom(2)] == ["b", "c"]
        assert [e.element for e in ds.bottom(4)] == ["b", "c", "d"]

    def test_unread_length_stays_within_growth_bound(self):
        rng = np.random.default_rng(11)
        for s in (1, 4, 16):
            lazy = SortedDominanceSet(s)
            eager = SortedDominanceSet(s)
            peak = 0
            for t in range(1, 4000):
                element = int(rng.integers(0, 100_000))
                h = float(rng.random())
                for ds in (lazy, eager):
                    ds.expire(t)
                    ds.observe(element, t + 500, h)
                peak = max(peak, len(eager))
                # Without reads, only the growth trigger prunes.
                assert len(lazy._entries) <= _GROWTH * max(peak, s)
            # A window of 500 arrivals, yet O(s log M) entries held.
            assert peak < 500 // _GROWTH
