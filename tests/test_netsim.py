"""Tests for the network simulation substrate."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.netsim import (
    COORDINATOR,
    Message,
    MessageKind,
    MessageTrace,
    Network,
    SlotClock,
)


class Recorder:
    """Minimal node that records received messages."""

    def __init__(self):
        self.received: list[Message] = []

    def handle_message(self, message, network):
        self.received.append(message)


class Echoer:
    """Node that replies to every message (tests reentrancy)."""

    def __init__(self, address, reply_to):
        self.address = address
        self.reply_to = reply_to

    def handle_message(self, message, network):
        if message.src != self.reply_to:
            return
        network.send(self.address, self.reply_to, MessageKind.THRESHOLD, 0.5)


class PingPonger:
    """Malicious node pair that loops forever (tests the depth guard)."""

    def __init__(self, address, peer):
        self.address = address
        self.peer = peer

    def handle_message(self, message, network):
        network.send(self.address, self.peer, MessageKind.REPORT, None)


class TestRouting:
    def test_register_and_send(self):
        net = Network()
        node = Recorder()
        net.register(0, node)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.7)
        assert len(node.received) == 1
        message = node.received[0]
        assert message.payload == 0.7
        assert message.kind is MessageKind.THRESHOLD

    def test_duplicate_address_rejected(self):
        net = Network()
        net.register(0, Recorder())
        with pytest.raises(ProtocolError):
            net.register(0, Recorder())

    def test_unknown_destination(self):
        net = Network()
        with pytest.raises(ProtocolError):
            net.send(0, 99, MessageKind.REPORT, None)

    def test_node_at(self):
        net = Network()
        node = Recorder()
        net.register(3, node)
        assert net.node_at(3) is node
        with pytest.raises(ProtocolError):
            net.node_at(4)

    def test_addresses(self):
        net = Network()
        net.register(1, Recorder())
        net.register(COORDINATOR, Recorder())
        assert set(net.addresses) == {1, COORDINATOR}

    def test_reentrant_reply(self):
        net = Network()
        site = Recorder()
        coordinator = Echoer(COORDINATOR, reply_to=0)
        net.register(0, site)
        net.register(COORDINATOR, coordinator)
        net.send(0, COORDINATOR, MessageKind.REPORT, ("e", 0.1, 0))
        assert len(site.received) == 1  # got the echo
        assert net.stats.total_messages == 2

    def test_depth_guard(self):
        net = Network()
        net.register(0, PingPonger(0, 1))
        net.register(1, PingPonger(1, 0))
        with pytest.raises(ProtocolError, match="nested"):
            net.send(0, 1, MessageKind.REPORT, None)


class TestAccounting:
    def test_direction_counters(self):
        net = Network()
        net.register(0, Recorder())
        net.register(COORDINATOR, Recorder())
        net.send(0, COORDINATOR, MessageKind.REPORT, None)
        net.send(0, COORDINATOR, MessageKind.REPORT, None)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        stats = net.stats
        assert stats.total_messages == 3
        assert stats.site_to_coordinator == 2
        assert stats.coordinator_to_site == 1

    def test_byte_accounting(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5, size_bytes=24)
        assert net.stats.total_bytes == 24

    def test_rejected_send_counts_nothing(self):
        # Regression: counters used to move BEFORE the destination was
        # validated, so a rejected send inflated every statistic.
        net = Network()
        net.register(0, Recorder())
        net.send(0, 0, MessageKind.REPORT, None, size_bytes=8)
        with pytest.raises(ProtocolError, match="no node registered"):
            net.send(0, 99, MessageKind.REPORT, None, size_bytes=8)
        stats = net.stats
        assert stats.total_messages == 1
        assert stats.total_bytes == 8
        assert net.kind_count(MessageKind.REPORT) == 1

    def test_kind_counters(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        net.send(COORDINATOR, 0, MessageKind.BROADCAST, 0.5)
        net.send(COORDINATOR, 0, MessageKind.BROADCAST, 0.4)
        assert net.kind_count(MessageKind.BROADCAST) == 2
        assert net.kind_count(MessageKind.THRESHOLD) == 1
        assert net.kind_count(MessageKind.REPORT) == 0

    def test_broadcast_counts_per_destination(self):
        net = Network()
        for i in range(5):
            net.register(i, Recorder())
        sent = net.broadcast(COORDINATOR, range(5), MessageKind.BROADCAST, 0.1)
        assert sent == 5
        assert net.stats.total_messages == 5
        assert net.stats.coordinator_to_site == 5

    def test_reset_stats(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        net.reset_stats()
        assert net.stats.total_messages == 0
        # Topology preserved.
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        assert net.stats.total_messages == 1

    def test_snapshot_is_independent(self):
        net = Network()
        net.register(0, Recorder())
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        snap = net.snapshot()
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        assert snap.total_messages == 1
        assert net.stats.total_messages == 2


class RunRecorder(Recorder):
    """Recorder that also takes whole runs through ``handle_run``."""

    def __init__(self):
        super().__init__()
        self.runs: list[tuple] = []

    def handle_run(self, src, kind, payloads, network):
        self.runs.append((src, kind, list(payloads)))


class RunPingPonger(PingPonger):
    """PingPonger that answers every run with a run (depth guard)."""

    def handle_run(self, src, kind, payloads, network):
        network.send_run(self.address, self.peer, kind, payloads)


def sent_one_by_one(record_kinds, src, dst, kind, payloads, size_bytes):
    net = Network(record_kinds=record_kinds)
    net.register(dst, Recorder())
    for payload in payloads:
        net.send(src, dst, kind, payload, size_bytes)
    return net.stats


class TestSendRun:
    @pytest.mark.parametrize("record_kinds", [True, False])
    @pytest.mark.parametrize(
        "src, dst, kind",
        [
            (0, COORDINATOR, MessageKind.SW_REPORT),
            (COORDINATOR, 2, MessageKind.SW_SAMPLE),
            (1, 2, MessageKind.REPORT),
        ],
    )
    def test_counts_equal_n_sends(self, record_kinds, src, dst, kind):
        payloads = [("e", 0.1 * i) for i in range(5)]
        net = Network(record_kinds=record_kinds)
        node = RunRecorder()
        net.register(dst, node)
        net.send_run(src, dst, kind, payloads, size_bytes=12)
        assert net.stats == sent_one_by_one(
            record_kinds, src, dst, kind, payloads, 12
        )
        assert net.stats.total_bytes == 60
        assert node.runs == [(src, kind, payloads)]
        assert node.received == []

    def test_empty_run_is_a_noop(self):
        net = Network()
        node = RunRecorder()
        net.register(0, node)
        net.send_run(COORDINATOR, 0, MessageKind.SW_SAMPLE, [])
        assert net.stats == Network().stats
        assert dict(net.stats.by_kind) == {}
        assert node.runs == [] and node.received == []

    @pytest.mark.parametrize("payloads", [[], [1, 2]])
    def test_unknown_destination_counts_nothing(self, payloads):
        net = Network()
        net.register(0, Recorder())
        with pytest.raises(ProtocolError, match="no node registered"):
            net.send_run(0, 99, MessageKind.REPORT, payloads)
        assert net.stats == Network().stats

    def test_node_without_handle_run_gets_messages_in_order(self):
        net = Network()
        node = Recorder()
        net.register(0, node)
        net.send_run(COORDINATOR, 0, MessageKind.THRESHOLD, [0.3, 0.2, 0.1], 8)
        assert node.received == [
            Message(COORDINATOR, 0, MessageKind.THRESHOLD, u, 8)
            for u in (0.3, 0.2, 0.1)
        ]
        assert net.stats.total_messages == 3

    def test_reentrant_run_reply(self):
        net = Network()
        site = RunRecorder()
        net.register(0, site)
        net.register(COORDINATOR, Echoer(COORDINATOR, reply_to=0))
        net.send_run(0, COORDINATOR, MessageKind.REPORT, ["a", "b"])
        assert len(site.received) == 2  # one echo per message of the run
        assert net.stats.site_to_coordinator == 2
        assert net.stats.coordinator_to_site == 2

    def test_depth_guard(self):
        net = Network()
        net.register(0, RunPingPonger(0, 1))
        net.register(1, RunPingPonger(1, 0))
        with pytest.raises(ProtocolError, match="nested"):
            net.send_run(0, 1, MessageKind.REPORT, [None, None])
        assert net._depth == 0


class TestClock:
    def test_advance(self):
        clock = SlotClock()
        assert clock.now == 0
        clock.advance_to(5)
        assert clock.now == 5
        clock.advance_to(5)  # idempotent
        assert clock.now == 5

    def test_tick(self):
        clock = SlotClock(3)
        assert clock.tick() == 4
        assert clock.now == 4

    def test_no_rewind(self):
        clock = SlotClock(10)
        with pytest.raises(ProtocolError):
            clock.advance_to(9)


class TestTrace:
    def test_sampling(self):
        net = Network()
        net.register(0, Recorder())
        trace = MessageTrace(net)
        trace.sample(0)
        net.send(COORDINATOR, 0, MessageKind.THRESHOLD, 0.5)
        trace.sample(100)
        assert trace.series() == [(0, 0), (100, 1)]
        assert len(trace) == 2
        assert trace.bytes == [0, 16]
