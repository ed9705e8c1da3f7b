"""The observation hook: ``component.observer``, ``None`` by default.

The simulator, links, wireless ports, TCP source and sink call
``self.observer.<point>(...)`` at the named points below when the hook
is set, so an unobserved point costs one attribute load and one ``is
None`` test.  Observers must not schedule, draw randomness, or change
what they observe.
"""

from __future__ import annotations


class Observer:
    """Every observation point, as a no-op; override the ones you need."""

    def dispatch(self, sim, event) -> None:
        """The engine is about to run ``event``; the clock stands at its time."""
    def wired_send(self, link, datagram, accepted) -> None:
        """A wired link queued (``accepted``) or dropped ``datagram``."""
    def wired_deliver(self, link, datagram) -> None:
        """A wired link hands ``datagram`` to its far end."""
    def air_send(self, link, frame) -> None:
        """A wireless link was offered ``frame``."""
    def air_deliver(self, link, frame) -> None:
        """A wireless link hands an intact ``frame`` to its far end."""
    def channel_verdict(self, link, nbits, corrupted) -> None:
        """``link.channel`` ruled on a frame of ``nbits`` that left the radio."""
    def arq_transmit(self, port, frame) -> None:
        """An ARQ port sends attempt number ``frame.attempt`` of a frame."""
    def tcp_receive(self, sender, datagram) -> None:
        """The TCP source has processed an ACK or ICMP ``datagram``."""
    def tcp_timeout(self, sender) -> None:
        """The TCP source has responded to a retransmission timeout."""
    def sink_deliver(self, sink, payload_bytes) -> None:
        """The sink is about to deliver ``payload_bytes`` in order."""
