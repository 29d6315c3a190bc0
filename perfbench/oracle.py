"""Exact-reference checker: what every recorded query should have returned.

The oracle recomputes, with NumPy and from the raw input columns alone,
the bottom-``s`` distinct keys (by the sampler's own unit hash) that each
query had to return:

* infinite window (``firehose``, ``mixed-rw``): the bottom-``s`` distinct
  keys of the stream prefix ingested so far;
* sliding window (``sliding-window``): the bottom-``s`` distinct keys
  whose latest arrival lies in the live window ``[now - W + 1, now]``,
  ``now`` being the slot of the last event ingested.

Samples are compared as key sets, through an order-free fingerprint, and
thresholds exactly.  Everything here runs outside the timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["Expected", "expected_prefix", "expected_window", "fingerprint",
           "count_failures", "live_distinct_per_site"]


def fingerprint(items: Any) -> int:
    """Order-free digest of a sample's keys (equal sets, equal digests)."""
    return hash(tuple(sorted(int(item) for item in items)))


@dataclass(frozen=True)
class Expected:
    """The reference answer at one query point."""

    items: np.ndarray  # sorted int64 keys of the true bottom-s
    threshold: float  # s-th smallest hash, or 1.0 below s keys
    fingerprint: int  # fingerprint(items)


def _answer(keys: np.ndarray, hashes: np.ndarray, s: int) -> Expected:
    """Bottom-``s`` of distinct ``keys`` (one hash per key) by hash."""
    if keys.size > s:
        top = np.argpartition(hashes, s - 1)[:s]
        keys, hashes = keys[top], hashes[top]
    threshold = float(hashes.max()) if keys.size == s else 1.0
    keys = np.sort(keys)
    return Expected(keys, threshold, fingerprint(keys.tolist()))


def expected_prefix(
    items: np.ndarray, hashes: np.ndarray, ends: Sequence[int], s: int
) -> list[Expected]:
    """Reference bottom-``s`` of each prefix ``items[:end]``."""
    keys, first = np.unique(items, return_index=True)
    key_hashes = hashes[first]
    order = np.argsort(key_hashes, kind="stable")
    keys, first, key_hashes = keys[order], first[order], key_hashes[order]
    answers = []
    for end in ends:
        # Keys are in ascending hash order: the first s keys already seen
        # by ``end`` are the prefix's bottom-s.
        chosen = np.flatnonzero(first < end)[:s]
        answers.append(_answer(keys[chosen], key_hashes[chosen], s))
    return answers


def expected_window(
    items: np.ndarray,
    slots: np.ndarray,
    hashes: np.ndarray,
    ends: Sequence[int],
    s: int,
    window: int,
) -> list[Expected]:
    """Reference bottom-``s`` of the live window after ``items[:end]``."""
    answers = []
    for end in ends:
        now = int(slots[end - 1])
        lo = int(np.searchsorted(slots, now - window + 1, side="left"))
        keys, first = np.unique(items[lo:end], return_index=True)
        answers.append(_answer(keys, hashes[lo:end][first], s))
    return answers


def live_distinct_per_site(
    items: np.ndarray, sites: np.ndarray, slots: np.ndarray, window: int,
    num_sites: int,
) -> list[int]:
    """``M_i``: live distinct keys per site at the end of the stream."""
    now = int(slots[-1])
    lo = int(np.searchsorted(slots, now - window + 1, side="left"))
    return [
        int(np.unique(items[lo:][sites[lo:] == site]).size)
        for site in range(num_sites)
    ]


def count_failures(
    recorded: Sequence[tuple[int, int, Optional[float]]],
    expected: Sequence[Expected],
) -> int:
    """Number of recorded queries that disagree with the reference.

    ``recorded`` holds ``(query_point, fingerprint, threshold_or_None)``
    per query, ``query_point`` indexing ``expected``.  A threshold of
    ``None`` means the query read no threshold.
    """
    failed = 0
    for point, digest, threshold in recorded:
        want = expected[point]
        if digest != want.fingerprint:
            failed += 1
        elif threshold is not None and threshold != want.threshold:
            failed += 1
    return failed
