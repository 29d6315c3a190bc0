"""Dominance-pruned candidate sets for sliding-window sampling.

A sliding-window site must answer, at any slot, "which live local element
has the smallest hash?" without storing the whole window.  The paper (after
Babcock, Datar & Motwani 2002) keeps only elements that could *ever* become
the minimum: tuple ``(e, t)`` **dominates** ``(e', t')`` iff ``t > t'`` and
``h(e) < h(e')`` — a dominated element can never be the minimum while the
dominating one is live, so it is dropped.  Lemma 10 shows the surviving set
has expected size ``H_M = O(log M)`` for ``M`` live distinct elements.

We generalize to sample size ``s`` (*s-dominance*): an entry is dropped iff
**at least s** entries with strictly later expiry have strictly smaller
hash; the survivors always contain the ``s`` smallest-hash live elements.

Two interchangeable implementations (differentially tested):

* :class:`SortedDominanceSet` — a list sorted by ``(expiry, hash)`` plus a
  hash-ordered index and an element index.  Supports any ``s >= 1``.
  Pruning is an O(n log s) right-to-left sweep that runs *lazily*: when
  the list has grown past :data:`_GROWTH` times its size after the last
  prune (or ``s``, if larger), or when a read that reports the pruned set
  needs it.  Amortized over the arrivals that grew the list, a sweep
  costs O(log s) per arrival, and the list never holds more than
  ``_GROWTH * max(pruned size, s)`` entries.
* :class:`TreapDominanceSet` — the paper's treap (s = 1 only): key
  ``(expiry, hash)``, priority ``hash``; min-hash is the root, expiry is an
  O(log n) split, and dominance pruning exploits the *staircase invariant*
  (surviving hashes increase with expiry), removing only a contiguous run
  of predecessors.

Read contract.  Pruning late is unobservable because an s-dominated entry
has at least ``s`` entries with later expiry and smaller hash: those
outlive it, so it can never rank among the ``s`` smallest live hashes, and
once dominated it stays dominated (its dominators expire after it, and a
refresh only extends a dominator's life).  The survivor set is therefore
closed under insert, refresh and expire, and the same whether pruning
runs after every arrival or later.  Hence:

* ``min_entry()``, ``bottom(count)`` for ``0 <= count <= s`` and
  ``expire(now)`` are answered exactly without pruning — a pending
  dominated entry never reaches the first ``s`` places of the hash
  order, and expiry removes a prefix of the expiry order either way;
* ``__len__``, ``__contains__``, ``entries()``, ``bottom(count)`` for
  other counts and ``check_invariants()`` prune first, so they report
  the pruned set exactly as an eager implementation would.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Any, Optional, Protocol

from .treap import Treap

__all__ = [
    "DominanceEntry",
    "DominanceSet",
    "SortedDominanceSet",
    "TreapDominanceSet",
    "brute_force_survivors",
]

#: A :class:`SortedDominanceSet` prunes once its list holds more than this
#: many times ``max(size after the last prune, s)`` entries.
_GROWTH = 2


class DominanceEntry:
    """A candidate tuple ``(element, expiry, hash)`` held by a site."""

    __slots__ = ("element", "expiry", "hash")

    def __init__(self, element: Any, expiry: int, hash_value: float) -> None:
        self.element = element
        self.expiry = expiry
        self.hash = hash_value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DominanceEntry({self.element!r}, expiry={self.expiry}, "
            f"hash={self.hash:.6f})"
        )

    def as_tuple(self) -> tuple[Any, int, float]:
        """Return ``(element, expiry, hash)``."""
        return (self.element, self.expiry, self.hash)


class DominanceSet(Protocol):
    """Protocol implemented by both dominance-set variants.

    Implementations may defer pruning (see the module docstring's read
    contract): ``min_entry``, ``bottom(count <= s)`` and ``expire`` must be
    exact over the pruned set without forcing a prune, and ``__len__``,
    ``__contains__`` and ``entries`` must report the pruned set.
    """

    def observe(self, element: Any, expiry: int, hash_value: float) -> None:
        """Insert ``element`` or refresh its expiry to ``expiry``; the
        entries it s-dominates (or that s-dominate it) leave the pruned
        set, possibly later."""
        ...

    def expire(self, now: int) -> None:
        """Drop every entry with ``expiry <= now`` (never prunes)."""
        ...

    def min_entry(self) -> Optional[DominanceEntry]:
        """Entry with the smallest hash, or None if empty (never prunes)."""
        ...

    def bottom(self, count: int) -> list[DominanceEntry]:
        """The ``count`` smallest-hash entries, ascending by hash (ties by
        expiry); prunes first only when ``count`` is not in ``[0, s]``."""
        ...

    def __len__(self) -> int:
        """Size of the pruned set (prunes first)."""
        ...

    def __contains__(self, element: Any) -> bool:
        """Membership in the pruned set (prunes first)."""
        ...

    def entries(self) -> list[DominanceEntry]:
        """All pruned-set entries, ordered by ``(expiry, hash)`` (prunes
        first)."""
        ...


def brute_force_survivors(
    entries: list[tuple[Any, int, float]], s: int = 1
) -> list[tuple[Any, int, float]]:
    """Reference s-dominance filter used by the tests.

    Args:
        entries: ``(element, expiry, hash)`` tuples (unique elements).
        s: Dominance order.

    Returns:
        Surviving tuples sorted by ``(expiry, hash)``: an entry survives iff
        strictly fewer than ``s`` other entries have strictly later expiry
        and strictly smaller hash.
    """
    survivors = []
    for elem, exp, h in entries:
        dominators = sum(
            1 for _, exp2, h2 in entries if exp2 > exp and h2 < h
        )
        if dominators < s:
            survivors.append((elem, exp, h))
    survivors.sort(key=lambda t: (t[1], t[2]))
    return survivors


class SortedDominanceSet:
    """s-dominance set in two orders, pruned lazily.

    Entries live in a list sorted by ``(expiry, hash)`` (expired from the
    left) and in a parallel hash-ordered index (``_hashes``/``_by_hash``,
    kept with :mod:`bisect`), so the minimum and the bottom-``s`` are
    slices rather than sorts.  Arrivals are not pruned one by one: the
    s-dominance sweep runs when the list has grown past
    :data:`_GROWTH` times ``max(size after the last prune, s)``, or when a
    read that reports the pruned set needs it (see the module docstring).

    Args:
        s: Dominance order (sample size the survivors must be able to
            serve).  ``s = 1`` reproduces the paper's structure.

    Raises:
        ValueError: If ``s < 1``.
    """

    __slots__ = (
        "_s",
        "_entries",
        "_index",
        "_hashes",
        "_by_hash",
        "_limit",
        "_dirty",
    )

    def __init__(self, s: int = 1) -> None:
        if s < 1:
            raise ValueError(f"dominance order s must be >= 1, got {s}")
        self._s = s
        self._entries: list[DominanceEntry] = []  # sorted by (expiry, hash)
        self._index: dict[Any, DominanceEntry] = {}
        # Hash order: ties by expiry, then by position in _entries, which
        # is the order a stable sort of _entries by hash gives.
        self._hashes: list[float] = []
        self._by_hash: list[DominanceEntry] = []
        self._limit = _GROWTH * s  # length that triggers the next prune
        self._dirty = False  # True iff an insert happened since the prune

    @property
    def s(self) -> int:
        """Dominance order."""
        return self._s

    def __len__(self) -> int:
        self._settle()
        return len(self._entries)

    def __contains__(self, element: Any) -> bool:
        self._settle()
        return element in self._index

    def entries(self) -> list[DominanceEntry]:
        self._settle()
        return list(self._entries)

    def observe(self, element: Any, expiry: int, hash_value: float) -> None:
        old = self._index.get(element)
        if old is not None:
            if expiry <= old.expiry:
                return  # refresh can only extend life
            self._entries.remove(old)
            self._unindex_hash(old)
        entry = DominanceEntry(element, expiry, hash_value)
        self._index[element] = entry
        self._insert(entry)
        self._dirty = True
        if len(self._entries) > self._limit:
            self._prune()

    def _insert(self, entry: DominanceEntry) -> None:
        # Most arrivals carry the largest expiry so far; test the tail first
        # to keep the common case O(1) before falling back to binary search.
        # An appended entry follows its (expiry, hash) equals, a bisected
        # one precedes them; the hash index mirrors that tie order.
        entries = self._entries
        key = (entry.expiry, entry.hash)
        if not entries or (entries[-1].expiry, entries[-1].hash) <= key:
            entries.append(entry)
            self._index_hash(entry, after_equals=True)
            return
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if (entries[mid].expiry, entries[mid].hash) < key:
                lo = mid + 1
            else:
                hi = mid
        entries.insert(lo, entry)
        self._index_hash(entry, after_equals=False)

    def _index_hash(self, entry: DominanceEntry, after_equals: bool) -> None:
        hashes = self._hashes
        h = entry.hash
        i = bisect_left(hashes, h)
        if i < len(hashes) and hashes[i] == h:  # hash tie: order by expiry
            by_hash = self._by_hash
            end = bisect_right(hashes, h, i)
            expiry = entry.expiry
            if after_equals:
                while i < end and by_hash[i].expiry <= expiry:
                    i += 1
            else:
                while i < end and by_hash[i].expiry < expiry:
                    i += 1
        hashes.insert(i, h)
        self._by_hash.insert(i, entry)

    def _unindex_hash(self, entry: DominanceEntry) -> None:
        by_hash = self._by_hash
        i = bisect_left(self._hashes, entry.hash)
        while by_hash[i] is not entry:
            i += 1
        del self._hashes[i]
        del by_hash[i]

    def _settle(self) -> None:
        """Prune if an insert happened since the last prune."""
        if self._dirty:
            self._prune()

    def _prune(self) -> None:
        """Right-to-left sweep dropping s-dominated entries.

        Maintains a max-heap of the ``s`` smallest hashes among entries with
        *strictly later* expiry; entries in the same expiry slot are judged
        as a group before joining the heap (equal expiry never dominates).
        The hash index is then filtered to the survivors, keeping its order.
        """
        entries = self._entries
        s = self._s
        self._dirty = False
        if len(entries) > s:
            index = self._index
            worst: list[float] = []  # negated hashes: max-heap of s smallest
            kept_rev: list[DominanceEntry] = []
            i = len(entries) - 1
            while i >= 0:
                # Identify the group of equal expiry ending at i.
                j = i
                expiry = entries[i].expiry
                while j >= 0 and entries[j].expiry == expiry:
                    j -= 1
                group = entries[j + 1 : i + 1]
                threshold = -worst[0] if len(worst) == s else None
                for entry in reversed(group):
                    if threshold is not None and entry.hash > threshold:
                        del index[entry.element]
                    else:
                        kept_rev.append(entry)
                # Survivors of this group now count as "later" for earlier
                # slots.
                for entry in group:
                    if index.get(entry.element) is entry:
                        if len(worst) < s:
                            heapq.heappush(worst, -entry.hash)
                        elif entry.hash < -worst[0]:
                            heapq.heapreplace(worst, -entry.hash)
                i = j
            if len(kept_rev) < len(entries):
                kept_rev.reverse()
                self._entries = kept_rev
                self._by_hash = [
                    e for e in self._by_hash if index.get(e.element) is e
                ]
                self._hashes = [e.hash for e in self._by_hash]
        self._limit = _GROWTH * max(len(self._entries), s)

    def expire(self, now: int) -> None:
        entries = self._entries
        cut = 0
        while cut < len(entries) and entries[cut].expiry <= now:
            entry = entries[cut]
            del self._index[entry.element]
            self._unindex_hash(entry)
            cut += 1
        if cut:
            del entries[:cut]

    def min_entry(self) -> Optional[DominanceEntry]:
        by_hash = self._by_hash
        return by_hash[0] if by_hash else None

    def bottom(self, count: int) -> list[DominanceEntry]:
        if not 0 <= count <= self._s:
            self._settle()
        return self._by_hash[:count]

    def check_invariants(self) -> None:
        """Assert both orders, index consistency, and s-dominance
        minimality (after settling any pending prune)."""
        self._settle()
        assert len(self._entries) == len(self._index)
        for a, b in zip(self._entries, self._entries[1:]):
            assert (a.expiry, a.hash) <= (b.expiry, b.hash), "sort order broken"
        assert self._by_hash == sorted(self._entries, key=lambda e: e.hash), (
            "hash index out of order"
        )
        assert self._hashes == [e.hash for e in self._by_hash]
        raw = [(e.element, e.expiry, e.hash) for e in self._entries]
        expected = brute_force_survivors(raw, self._s)
        assert raw == expected, "set contains a dominated entry"


class TreapDominanceSet:
    """Paper-faithful treap-backed dominance set (s = 1).

    Key: ``(expiry, hash)`` (hash breaks same-slot ties); priority: hash,
    min-heap — so :meth:`min_entry` is the root.  The staircase invariant
    (hash strictly increases across strictly increasing expiry) makes the
    dominated region after an insert a contiguous run of predecessor keys.
    """

    __slots__ = ("_treap", "_index")

    def __init__(self, s: int = 1) -> None:
        if s != 1:
            raise ValueError(
                "TreapDominanceSet implements the paper's s=1 structure; "
                "use SortedDominanceSet for s > 1"
            )
        self._treap = Treap()
        self._index: dict[Any, tuple[int, float]] = {}  # element -> key

    @property
    def s(self) -> int:
        """Dominance order (always 1 for this implementation)."""
        return 1

    def __len__(self) -> int:
        return len(self._treap)

    def __contains__(self, element: Any) -> bool:
        return element in self._index

    def entries(self) -> list[DominanceEntry]:
        return [
            DominanceEntry(node.value, node.key[0], node.key[1])
            for node in self._treap
        ]

    def observe(self, element: Any, expiry: int, hash_value: float) -> None:
        old_key = self._index.get(element)
        if old_key is not None:
            if expiry <= old_key[0]:
                return
            self._treap.remove(old_key)
        key = (expiry, hash_value)

        # Is the newcomer itself dominated?  The minimum hash among strictly
        # later expiries is the first entry of the next expiry band.
        succ = self._treap.successor((expiry, float("inf")))
        if succ is not None and succ.key[1] < hash_value:
            if old_key is not None:
                del self._index[element]
            return

        # Drop now-dominated predecessors: strictly earlier expiry, larger
        # hash.  By the staircase invariant they are a contiguous run.
        while True:
            pred = self._treap.predecessor((expiry, -1.0))
            if pred is None or pred.key[1] < hash_value:
                break
            del self._index[pred.value]
            self._treap.remove(pred.key)

        self._treap.insert(key, hash_value, element)
        self._index[element] = key

    def expire(self, now: int) -> None:
        for node in self._treap.split_leq((now, float("inf"))):
            del self._index[node.value]

    def min_entry(self) -> Optional[DominanceEntry]:
        node = self._treap.min_priority()
        if node is None:
            return None
        return DominanceEntry(node.value, node.key[0], node.key[1])

    def bottom(self, count: int) -> list[DominanceEntry]:
        out = sorted(self.entries(), key=lambda e: e.hash)
        return out[:count]

    def check_invariants(self) -> None:
        """Assert treap invariants plus dominance minimality."""
        self._treap.check_invariants()
        assert len(self._treap) == len(self._index)
        raw = [(e.element, e.expiry, e.hash) for e in self.entries()]
        expected = brute_force_survivors(raw, 1)
        assert sorted(raw, key=lambda t: (t[1], t[2])) == expected
