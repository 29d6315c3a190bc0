"""Pinned v2 snapshots of the sliding-window facades.

``sliding_snapshots_v2.json`` holds the JSON-serialized ``snapshot()`` of
every sliding facade (and a sharded local-push sampler) after the seeded
stream below, which has slot gaps longer than the window so sites lapse
and fall back.  The tests check that the same run still serializes to the
same bytes — key order included, since :mod:`repro.runtime.reshard` and
stored checkpoints read this layout — and that restoring the pinned
snapshot continues exactly like a twin that was never snapshotted.

Regenerate the fixture (only for an intended layout change) with::

    PYTHONPATH=src python tests/test_sliding_snapshot_compat.py --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro import make_sampler, restore, snapshot
from repro.errors import ConfigurationError

FIXTURE = Path(__file__).with_name("sliding_snapshots_v2.json")

COMMON = dict(num_sites=3, window=4, seed=11)

CONFIGS = {
    "sliding-treap-exact": dict(variant="sliding", structure="treap"),
    "sliding-sorted-exact": dict(variant="sliding", structure="sorted"),
    "sliding-paper": dict(variant="sliding", coordinator_mode="paper"),
    "sliding-feedback-s3": dict(variant="sliding-feedback", sample_size=3),
    "sliding-local-push-s3": dict(variant="sliding-local-push", sample_size=3),
    "sharded-sliding-local-push-s3": dict(
        variant="sharded:sliding-local-push", sample_size=3, shards=2
    ),
}


def _element(rng: random.Random):
    key = rng.randrange(24)
    kind = key % 3
    if kind == 0:
        return key
    if kind == 1:
        return f"k{key}"
    return ("ip", key)


def _events(seed: int, start_slot: int, n: int) -> list:
    """Slot-stamped events; some gaps exceed the window (lapses)."""
    rng = random.Random(seed)
    slot = start_slot
    events = []
    for _ in range(n):
        slot += rng.choice((0, 0, 0, 1, 1, 2, 7))
        events.append((rng.randrange(COMMON["num_sites"]), _element(rng), slot))
    return events


PREFIX = _events(1, 0, 90)
SUFFIX = _events(2, PREFIX[-1][2], 90)


def _build(name: str):
    return make_sampler(**COMMON, **CONFIGS[name])


def _snapshot_json(sampler) -> str:
    return json.dumps(snapshot(sampler))


def _capture() -> dict:
    out = {}
    for name in CONFIGS:
        sampler = _build(name)
        sampler.observe_batch(PREFIX)
        out[name] = json.loads(_snapshot_json(sampler))
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_snapshot_bytes_match_fixture(name, pinned):
    sampler = _build(name)
    sampler.observe_batch(PREFIX)
    assert _snapshot_json(sampler) == json.dumps(pinned[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_restored_fixture_continues_like_twin(name, pinned):
    twin = _build(name)
    twin.observe_batch(PREFIX)
    restored = restore(json.loads(json.dumps(pinned[name])))
    for i in range(0, len(SUFFIX), 15):
        chunk = SUFFIX[i : i + 15]
        twin.observe_batch(chunk)
        restored.observe_batch(chunk)
        assert restored.sample() == twin.sample()
        assert restored.stats() == twin.stats()
    assert restored.state_dict() == twin.state_dict()


def _last_site_with_entries(state: dict) -> dict:
    return [s for s in state["system"]["sites"] if s["entries"]][-1]


def _bad_expiry(state: dict) -> None:
    _last_site_with_entries(state)["entries"][0][1] = "x"


def _short_row(state: dict) -> None:
    _last_site_with_entries(state)["entries"][0] = ["a", 3]


def _bad_site_expiry(state: dict) -> None:
    """The site's own expiry field (local push: a reported expiry)."""
    sites = state["system"]["sites"]
    for key in ("sample_expiry", "valid_until"):
        if key in sites[-1]:
            sites[-1][key] = "x"
            return
    [s for s in sites if s["reported"]][-1]["reported"][0][1] = "x"


def _missing_sites(state: dict) -> None:
    del state["system"]["sites"]


def _unknown_kind(state: dict) -> None:
    state["network"]["by_kind"]["NOT_A_KIND"] = 1


CORRUPTIONS = {
    "bad-expiry": _bad_expiry,
    "short-row": _short_row,
    "bad-site-expiry": _bad_site_expiry,
    "missing-sites": _missing_sites,
    "unknown-by-kind": _unknown_kind,
}

LOAD_CONFIGS = {
    "sliding-exact": dict(variant="sliding"),
    "sliding-paper": dict(variant="sliding", coordinator_mode="paper"),
    "sliding-feedback": dict(variant="sliding-feedback", sample_size=3),
    "sliding-local-push": dict(variant="sliding-local-push", sample_size=3),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", sorted(LOAD_CONFIGS))
def test_corrupt_load_state_is_typed_and_atomic(name, corruption):
    sampler = make_sampler(**COMMON, **LOAD_CONFIGS[name])
    twin = make_sampler(**COMMON, **LOAD_CONFIGS[name])
    sampler.observe_batch(PREFIX)
    twin.observe_batch(PREFIX)
    # A state from elsewhere in the stream, so a partial load would show.
    donor = make_sampler(**COMMON, **LOAD_CONFIGS[name])
    donor.observe_batch(PREFIX + SUFFIX)
    bad = json.loads(json.dumps(donor.state_dict()))
    CORRUPTIONS[corruption](bad)
    before = sampler.state_dict()
    with pytest.raises(ConfigurationError):
        sampler.load_state(bad)
    assert sampler.state_dict() == before == twin.state_dict()
    sampler.observe_batch(SUFFIX)
    twin.observe_batch(SUFFIX)
    assert sampler.sample() == twin.sample()
    assert sampler.stats() == twin.stats()
    assert sampler.state_dict() == twin.state_dict()


@pytest.mark.parametrize(
    "variant, sample_size",
    [
        ("sharded:sliding", 1),
        ("sharded:sliding-feedback", 2),
        ("sharded:sliding-local-push", 2),
    ],
)
def test_sharded_rollback_rewinds_a_newer_group_clock(variant, sample_size):
    # Group 0 loads a later state, group 1 fails: the rollback must load
    # group 0's older state back, which moves its clock backwards.
    config = dict(COMMON, variant=variant, sample_size=sample_size, shards=2)
    sampler = make_sampler(**config)
    sampler.observe_batch(PREFIX)
    before = sampler.state_dict()
    donor = make_sampler(**config)
    donor.observe_batch(PREFIX + SUFFIX)
    bad = json.loads(json.dumps(donor.state_dict()))
    _missing_sites(bad["groups"][1])
    with pytest.raises(ConfigurationError):
        sampler.load_state(bad)
    assert sampler.state_dict() == before


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sliding_snapshot_compat.py --write")
    FIXTURE.write_text(json.dumps(_capture(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
