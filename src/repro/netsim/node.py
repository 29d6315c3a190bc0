"""Node protocols for the simulated distributed system.

A node is anything addressable on the :class:`~repro.netsim.network.Network`
that can receive messages.  Sites additionally observe stream elements;
slotted (sliding-window) sites are driven by slot-boundary ticks.

A node may also define the optional hook::

    def handle_run(self, src: int, kind: MessageKind,
                   payloads: Sequence[Any], network: Network) -> None: ...

The synchronous network calls it once for a whole run sent with
:meth:`~repro.netsim.network.Network.send_run` (same-kind messages from
``src``, already counted one by one).  It must end in the state that
``len(payloads)`` in-order ``handle_message`` calls would reach, and send
the same messages, though it may skip intermediate states nobody can
observe (e.g. compute one reply and send it as a run of ``len(payloads)``
replies).  Nodes without the hook get the run message by message; delayed
networks always deliver per message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .message import Message
    from .network import Network

__all__ = ["Node", "StreamSite", "SlottedSite"]


@runtime_checkable
class Node(Protocol):
    """Anything that can receive a message."""

    def handle_message(self, message: "Message", network: "Network") -> None:
        """Process an incoming message; may send replies via ``network``."""
        ...


@runtime_checkable
class StreamSite(Node, Protocol):
    """A site monitoring an infinite-window local stream."""

    site_id: int

    def observe(self, element: Any, network: "Network") -> None:
        """Process one local stream element."""
        ...


@runtime_checkable
class SlottedSite(Node, Protocol):
    """A site monitoring a time-slotted (sliding-window) local stream."""

    site_id: int

    def observe(self, element: Any, now: int, network: "Network") -> None:
        """Process one local element arriving in slot ``now``."""
        ...

    def tick(self, now: int, network: "Network") -> None:
        """Run slot-boundary maintenance (expiry, sample refresh) for ``now``."""
        ...
