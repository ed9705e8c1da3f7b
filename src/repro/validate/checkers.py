"""The concrete invariant checkers.

Each checker guards one class of protocol property the paper's claims
rest on:

* :class:`TimerSanityChecker` — engine: no cancelled event ever fires,
  and fire times never move backwards (simulator event dispatch).
* :class:`TcpStateChecker` — transport: sequence monotonicity and
  cwnd/ssthresh legality under the Tahoe/Reno/NewReno state machines.
* :class:`ArqBoundChecker` — link layer: no frame is ever transmitted
  more than RTmax times (the paper's CDPD bound, 13).
* :class:`EbsnWindowChecker` — the paper's core contract: EBSN re-arms
  the retransmission timer and does *nothing else*; any window action
  from the EBSN handler is a violation.
* :class:`DeliveryChecker` — receive path: nothing is delivered after
  the connection completed (no delivery after FIN) and the sink never
  holds more in-order payload than the source has produced.
* :class:`ConservationChecker` — end of run: every transferred byte
  was delivered exactly once, and the accounting counters agree.

All checkers are pure :class:`~repro.engine.Observer` objects: they
read what the observation hands them, draw no randomness, and schedule
nothing, so validated runs are bit-identical to unvalidated ones.
"""

from __future__ import annotations

from repro.net.packet import IcmpMessage, IcmpType
from repro.validate.engine import InvariantChecker

#: Slack for float comparisons on cwnd/ssthresh (segments).
_EPS = 1e-9


class TimerSanityChecker(InvariantChecker):
    """No firing of cancelled events; fire times never go backwards.

    Observes every engine dispatch: the event must be live, must not
    precede the previously dispatched one, and the clock must already
    stand at its time.  A lazy-deletion or heap-compaction bug in the
    engine surfaces here instead of as a mystery retransmission.
    """

    name = "timer-sanity"
    _last_fired = float("-inf")

    def dispatch(self, sim, event) -> None:
        """Check one dispatched event."""
        self.observations += 1
        time = event.time
        # One combined guard on the per-event path; the reports (and
        # which of the three failed) live in the cold helper.
        if (
            event.cancelled
            or time < self._last_fired - _EPS
            or abs(sim.now - time) > _EPS
        ):
            self._report_dispatch(sim.now, event)
        self._last_fired = time

    def _report_dispatch(self, now: float, event) -> None:
        time = event.time
        if event.cancelled:
            self.report(f"cancelled event fired (t={time:.6f})")
        if time < self._last_fired - _EPS:
            self.report(
                f"event fired out of order: t={time:.6f} after "
                f"t={self._last_fired:.6f}"
            )
        if abs(now - time) > _EPS:
            self.report(
                f"clock desync: now={now:.6f} but event scheduled "
                f"for t={time:.6f}"
            )


class TcpStateChecker(InvariantChecker):
    """Sequence monotonicity and window legality at the TCP source.

    After every datagram the source processes: ``snd_una`` never moves
    backwards, ``snd_una <= snd_nxt``, ``cwnd >= 1``, ``ssthresh >= 2``,
    and cwnd grows by at most ``dupack_threshold + 1`` segments per
    event (the largest single-step growth any of Tahoe/Reno/NewReno
    permits — slow start adds 1, Reno's fast retransmit sets
    ``cwnd = ssthresh + 3``).  A timeout must collapse cwnd to 1
    (all three variants revert to slow start on timeout).  "Before" is
    the state at the previous datagram or timeout.
    """

    name = "tcp-state"

    def attach(self, scenario, report) -> None:
        """Note the source's starting state."""
        super().attach(scenario, report)
        self._una, self._cwnd = scenario.sender.snd_una, scenario.sender.cwnd

    def tcp_receive(self, sender, datagram) -> None:
        """Check the source after one ACK or ICMP datagram."""
        self.observations += 1
        if sender.snd_una < self._una:
            self.report(f"snd_una moved backwards: {self._una} -> {sender.snd_una}")
        if sender.snd_nxt < sender.snd_una:
            self.report(
                f"snd_nxt {sender.snd_nxt} fell below snd_una {sender.snd_una}"
            )
        if sender.cwnd < 1.0 - _EPS:
            self.report(f"cwnd fell below one segment: {sender.cwnd:.6f}")
        if sender.ssthresh < 2.0 - _EPS:
            self.report(f"ssthresh fell below two segments: {sender.ssthresh:.6f}")
        growth = sender.cwnd - self._cwnd
        if growth > sender.config.dupack_threshold + 1 + _EPS:
            self.report(
                f"cwnd grew by {growth:.3f} segments on one event "
                f"(legal maximum {sender.config.dupack_threshold + 1})"
            )
        self._una, self._cwnd = sender.snd_una, sender.cwnd

    def tcp_timeout(self, sender) -> None:
        """Check that the timeout collapsed cwnd to one segment."""
        self.observations += 1
        if abs(sender.cwnd - 1.0) > _EPS:
            self.report(
                f"timeout did not collapse cwnd to 1 (cwnd={sender.cwnd:.6f})"
            )
        self._una, self._cwnd = sender.snd_una, sender.cwnd


class ArqBoundChecker(InvariantChecker):
    """No link frame is transmitted more than RTmax times."""

    name = "arq-rtmax"

    def arq_transmit(self, port, frame) -> None:
        """Check the frame's attempt number against RTmax."""
        self.observations += 1
        rtmax = port.arq_config.rtmax
        if frame.attempt > rtmax:
            self.report(
                f"{port.name}: frame uid={frame.uid} reached "
                f"{frame.attempt} transmissions (RTmax={rtmax})"
            )


class EbsnWindowChecker(InvariantChecker):
    """EBSN must never modify cwnd/ssthresh (the paper's Appendix).

    The source's entire EBSN response is "re-arm the retransmission
    timer at the current timeout"; any window action would change the
    congestion behaviour the paper explicitly leaves untouched.
    Source-quench messages *do* shrink the window, so only
    ``IcmpType.EBSN`` deliveries are held to this contract, against the
    window left by the previous datagram or timeout.
    """

    name = "ebsn-no-window-action"

    def attach(self, scenario, report) -> None:
        """Note the source's starting window."""
        super().attach(scenario, report)
        self._window = (scenario.sender.cwnd, scenario.sender.ssthresh)

    def tcp_receive(self, sender, datagram) -> None:
        """Check an EBSN against the window it found."""
        self.observations += 1
        window = (sender.cwnd, sender.ssthresh)
        message = datagram.payload
        if (
            isinstance(message, IcmpMessage)
            and message.icmp_type is IcmpType.EBSN
            and window != self._window
        ):
            self.report(
                f"EBSN handler modified the window: cwnd "
                f"{self._window[0]:.3f} -> {window[0]:.3f}, ssthresh "
                f"{self._window[1]:.3f} -> {window[1]:.3f}"
            )
        self._window = window

    def tcp_timeout(self, sender) -> None:
        """Note the window the timeout left."""
        self.observations += 1
        self._window = (sender.cwnd, sender.ssthresh)


class DeliveryChecker(InvariantChecker):
    """No delivery after FIN; delivered bytes never exceed produced bytes.

    Observes the sink's in-order deliveries.  ``sender.transfer_bytes``
    is read at check time, so stream-fed senders (the interactive
    workload) are bounded by what the application has queued so far.
    """

    name = "delivery"

    def attach(self, scenario, report) -> None:
        """Note the source and whether its completion bounds deliveries."""
        super().attach(scenario, report)
        self._sender = scenario.sender
        # Under SPLIT the source legitimately completes (relay ACKed
        # everything) while the relay is still draining to the sink, so
        # only the sink's own FIN bounds deliveries there.
        self._watch_sender = scenario.split_relay is None

    def sink_deliver(self, sink, payload_bytes) -> None:
        """Check one in-order delivery before it happens."""
        self.observations += 1
        sender = self._sender
        if sink.completed or (self._watch_sender and sender.completed):
            self.report(
                f"{payload_bytes} B delivered after the connection "
                f"completed (no delivery after FIN)"
            )
        delivered = sink.stats.useful_payload_bytes + payload_bytes
        ceiling = getattr(sender, "transfer_bytes", None)
        if ceiling is not None and delivered > ceiling:
            self.report(
                f"sink delivered {delivered} B in order but the source "
                f"only produced {ceiling} B (duplicate delivery)"
            )


class ConservationChecker(InvariantChecker):
    """End-of-run byte/packet conservation and counter consistency."""

    name = "conservation"

    def finalize(self, scenario, result, report) -> None:
        """Check byte conservation and counter consistency at end of run."""
        self.observations += 1
        sender = scenario.sender
        sink = scenario.sink
        metrics = result.metrics

        if result.completed:
            expected = getattr(sender, "transfer_bytes", None)
            delivered = sink.stats.useful_payload_bytes
            if expected is not None and delivered != expected:
                report(
                    f"completed transfer delivered {delivered} B in order "
                    f"but the source produced {expected} B"
                )

        if result.completed and metrics.goodput <= 0.0:
            report("completed transfer reports zero goodput")

        stats = sender.stats
        if stats.retransmitted_bytes_wire > stats.bytes_sent_wire:
            report(
                f"retransmitted wire bytes ({stats.retransmitted_bytes_wire}) "
                f"exceed total wire bytes ({stats.bytes_sent_wire})"
            )
        expected_retx = stats.segments_sent - sender.total_segments
        if result.completed and stats.retransmissions != expected_retx:
            report(
                f"retransmission accounting broke: counter says "
                f"{stats.retransmissions}, sends minus segments says "
                f"{expected_retx}"
            )
        # The split relay re-segments onto the wireless hop with its
        # own headers, so the source's wire bytes don't bound the
        # sink's (and goodput — their ratio — can exceed 1); every
        # other scheme forwards the source's packets unchanged.
        if scenario.split_relay is None:
            if metrics.goodput > 1.0 + _EPS:
                report(f"goodput exceeds 1: {metrics.goodput:.6f}")
            if metrics.useful_wire_bytes > metrics.bytes_sent_wire:
                report(
                    f"useful wire bytes ({metrics.useful_wire_bytes}) exceed "
                    f"bytes the source sent ({metrics.bytes_sent_wire})"
                )


def default_checkers(scenario):
    """The standard checker set for one scenario run.

    The EBSN contract comes before the generic window checks, so a
    window action taken on an EBSN is blamed on EBSN.
    """
    return [
        TimerSanityChecker(),
        EbsnWindowChecker(),
        TcpStateChecker(),
        ArqBoundChecker(),
        DeliveryChecker(),
        ConservationChecker(),
    ]
