"""Synchronous zero-delay message-passing network with cost accounting.

The continuous-distributed-monitoring model (paper Ch. 2) assumes
synchronized clocks and negligible delay, so delivery is immediate: sending
a message invokes the destination's handler before ``send`` returns.  The
network's job is therefore mostly *accounting* — every message is counted
(total, per kind, per direction) because message count is the paper's cost
metric.

Reentrancy is expected and safe: a coordinator handling a site's REPORT
sends a THRESHOLD reply from inside its handler.  Protocol nesting in this
package is bounded (request -> reply), so plain recursion suffices; a depth
guard catches accidental ping-pong loops in user extensions.

A *run* is a sequence of same-kind messages from one sender to one
receiver, sent with :meth:`Network.send_run` (for example a lapsed
sliding-window site pushing its whole local bottom-s).  Each message of a
run is counted exactly as a separate :meth:`Network.send` would count it,
so the paper's cost model (one unit per constant-size message) is
unchanged.  Because delivery is immediate, nothing can happen between the
messages of a run, so the receiver may process the run in one
``handle_run`` call instead of one handler call per message; a receiver
without that hook gets the messages one by one.  Networks that delay
messages deliver a run message by message (see
:class:`~repro.netsim.delayed.DelayedNetwork`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..errors import ProtocolError
from .message import COORDINATOR, Message, MessageKind
from .node import Node

__all__ = ["Network", "MessageStats"]

_MAX_DISPATCH_DEPTH = 8


@dataclass
class MessageStats:
    """Aggregated message-cost counters.

    Attributes:
        total_messages: All messages sent.
        total_bytes: Sum of message ``size_bytes``.
        site_to_coordinator: Messages from any site to the coordinator.
        coordinator_to_site: Messages from the coordinator to any site
            (broadcast counts once per destination, as in the paper).
        by_kind: Message counts keyed by :class:`MessageKind`.
    """

    total_messages: int = 0
    total_bytes: int = 0
    site_to_coordinator: int = 0
    coordinator_to_site: int = 0
    by_kind: Counter = field(default_factory=Counter)

    def snapshot(self) -> "MessageStats":
        """Return an independent copy (for time-series sampling)."""
        copy = MessageStats(
            total_messages=self.total_messages,
            total_bytes=self.total_bytes,
            site_to_coordinator=self.site_to_coordinator,
            coordinator_to_site=self.coordinator_to_site,
        )
        copy.by_kind = Counter(self.by_kind)
        return copy


class Network:
    """Routes messages between registered nodes and counts them.

    Args:
        record_kinds: If True (default), per-kind counters are maintained.
            Disable only in micro-benchmarks where Counter updates dominate.
    """

    __slots__ = ("stats", "_nodes", "_depth", "_record_kinds")

    #: Whether ``send`` delivers before returning.  Delay-tolerant
    #: subclasses override this to False; the vectorized ingestion fast
    #: paths consult it, because their same-slot dedup proofs rely on
    #: coordinator replies landing synchronously.
    synchronous = True

    def __init__(self, record_kinds: bool = True) -> None:
        self.stats = MessageStats()
        self._nodes: dict[int, Node] = {}
        self._depth = 0
        self._record_kinds = record_kinds

    # -- topology -----------------------------------------------------------

    def register(self, address: int, node: Node) -> None:
        """Attach ``node`` at ``address`` (site index or COORDINATOR).

        Raises:
            ProtocolError: If the address is already taken.
        """
        if address in self._nodes:
            raise ProtocolError(f"address {address} already registered")
        self._nodes[address] = node

    def node_at(self, address: int) -> Node:
        """Return the node registered at ``address``.

        Raises:
            ProtocolError: If no node is registered there.
        """
        try:
            return self._nodes[address]
        except KeyError:
            raise ProtocolError(f"no node registered at address {address}") from None

    @property
    def addresses(self) -> list[int]:
        """All registered addresses."""
        return list(self._nodes)

    # -- messaging ------------------------------------------------------------

    def _count(
        self, src: int, dst: int, kind: MessageKind, n: int, size_bytes: int
    ) -> Node:
        """Validate ``dst``, then count ``n`` messages on the src->dst link.

        A message is counted only once ``dst`` validates: a rejected send
        never happened on the wire, so it must not skew the paper's
        message-cost metric.

        Returns:
            The node registered at ``dst``.

        Raises:
            ProtocolError: If ``dst`` is unregistered.
        """
        node = self._nodes.get(dst)
        if node is None:
            raise ProtocolError(f"no node registered at address {dst}")
        stats = self.stats
        stats.total_messages += n
        stats.total_bytes += n * size_bytes
        if dst == COORDINATOR:
            stats.site_to_coordinator += n
        elif src == COORDINATOR:
            stats.coordinator_to_site += n
        if self._record_kinds:
            stats.by_kind[kind] += n
        return node

    def send(
        self,
        src: int,
        dst: int,
        kind: MessageKind,
        payload: Any,
        size_bytes: int = 16,
    ) -> None:
        """Send and synchronously deliver one message.

        The message is counted only once ``dst`` validates.

        Raises:
            ProtocolError: If ``dst`` is unregistered or dispatch nests
                deeper than the protocol bound (a ping-pong loop).
        """
        node = self._count(src, dst, kind, 1, size_bytes)
        if self._depth >= _MAX_DISPATCH_DEPTH:
            raise ProtocolError(
                "message dispatch nested deeper than the protocol allows; "
                "likely an unbounded reply loop"
            )
        self._depth += 1
        try:
            node.handle_message(Message(src, dst, kind, payload, size_bytes), self)
        finally:
            self._depth -= 1

    def send_run(
        self,
        src: int,
        dst: int,
        kind: MessageKind,
        payloads: Sequence[Any],
        size_bytes: int = 16,
    ) -> None:
        """Send and synchronously deliver a run of same-kind messages.

        Counts ``len(payloads)`` messages exactly as that many
        :meth:`send` calls would (total, bytes, direction and per-kind),
        all up front once ``dst`` validates.  The whole run then goes to
        the destination's ``handle_run(src, kind, payloads, network)``
        hook in one call; a node without that hook receives the run as
        one :class:`Message` per payload, in order, through
        ``handle_message``.  An empty run sends nothing.

        Raises:
            ProtocolError: If ``dst`` is unregistered or dispatch nests
                deeper than the protocol bound (a ping-pong loop).
        """
        if not payloads:
            self.node_at(dst)  # still validate: a run to nowhere is a bug
            return
        node = self._count(src, dst, kind, len(payloads), size_bytes)
        if self._depth >= _MAX_DISPATCH_DEPTH:
            raise ProtocolError(
                "message dispatch nested deeper than the protocol allows; "
                "likely an unbounded reply loop"
            )
        self._depth += 1
        try:
            handle_run = getattr(node, "handle_run", None)
            if handle_run is not None:
                handle_run(src, kind, payloads, self)
            else:
                for payload in payloads:
                    node.handle_message(
                        Message(src, dst, kind, payload, size_bytes), self
                    )
        finally:
            self._depth -= 1

    def broadcast(
        self,
        src: int,
        dsts: Iterable[int],
        kind: MessageKind,
        payload: Any,
        size_bytes: int = 16,
    ) -> int:
        """Send the same payload to every address in ``dsts``.

        Each destination counts as one message, matching the paper's model
        for Algorithm Broadcast.  Returns the number of messages sent.
        """
        count = 0
        for dst in dsts:
            self.send(src, dst, kind, payload, size_bytes)
            count += 1
        return count

    # -- introspection -------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero all counters (topology is preserved)."""
        self.stats = MessageStats()

    def snapshot(self) -> MessageStats:
        """Copy of the current counters (for time-series sampling)."""
        return self.stats.snapshot()

    def kind_count(self, kind: MessageKind) -> int:
        """Messages sent with ``kind`` so far."""
        return self.stats.by_kind.get(kind, 0)
