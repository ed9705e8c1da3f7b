"""ns-style event logs: record, serialize, parse, analyze.

The original ns produced flat text traces (one line per network event)
that its users post-processed; the paper's Figs 3-5 came from such
traces.  :class:`EventLog` is this library's equivalent: it observes
the links and the channel through their observation hooks
(:func:`attach_to_scenario`), every event becomes one record, and the
log round-trips through the classic whitespace format::

    <time> <event> <place> <kind> <size> <uid>

e.g. ``12.345678 corrupt BS->MH data 128 1042``.

:class:`EventLogAnalyzer` computes the usual post-processing products:
per-event counts, a delivered-bytes time series, and the distribution
of consecutive-loss run lengths (the burstiness fingerprint of the
two-state channel).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Iterator, List, NamedTuple, Optional, TextIO, Tuple

from repro.engine.observer import Observer
from repro.net.packet import FrameKind, IcmpMessage, PacketType, TcpAck, TcpSegment


class TraceParseError(ValueError):
    """A line that does not parse as the whitespace trace format.

    Raised instead of the bare ``ValueError`` that ``float()``/``int()``
    would produce, so callers (and humans reading a traceback) see the
    offending line and field rather than just ``could not convert
    string to float``.
    """


class EventType(enum.Enum):
    """What happened to a packet or frame."""

    WIRED_SEND = "wired_send"
    WIRED_RECV = "wired_recv"
    WIRED_DROP = "wired_drop"
    AIR_SEND = "air_send"
    AIR_RECV = "air_recv"
    CORRUPT = "corrupt"


class Event(NamedTuple):
    """One trace record, as the log's readers see it."""

    time: float
    event: EventType
    place: str
    kind: str
    size_bytes: int
    uid: int

    def to_line(self) -> str:
        """Serialize to the whitespace trace format."""
        return _line(self)

    @classmethod
    def from_line(cls, line: str) -> "Event":
        parts = line.split()
        if len(parts) != 6:
            raise TraceParseError(
                f"malformed trace line (expected 6 whitespace-separated "
                f"fields, got {len(parts)}): {line!r}"
            )
        try:
            time = float(parts[0])
        except ValueError:
            raise TraceParseError(
                f"bad time field {parts[0]!r} in trace line: {line!r}"
            ) from None
        try:
            event = EventType(parts[1])
        except ValueError:
            raise TraceParseError(
                f"unknown event type {parts[1]!r} in trace line: {line!r} "
                f"(know {sorted(e.value for e in EventType)})"
            ) from None
        try:
            size_bytes = int(parts[4])
            uid = int(parts[5])
        except ValueError:
            raise TraceParseError(
                f"bad size/uid field in trace line: {line!r}"
            ) from None
        return cls(
            time=time,
            event=event,
            place=parts[2],
            kind=parts[3],
            size_bytes=size_bytes,
            uid=uid,
        )


#: A stored record: ``Event``'s fields, except that ``kind`` may still
#: be what the observation point had at hand -- a ``FrameKind`` member
#: or a datagram's payload class -- rather than its text.
_Record = Tuple[float, EventType, str, object, int, int]

#: Text of every non-string ``kind`` a record can hold: the frame kinds,
#: and the payload classes behind ``Datagram.packet_type``.
_KIND_TEXT: Dict[object, str] = {
    **{kind: kind.value for kind in FrameKind},
    TcpSegment: PacketType.DATA.value,
    TcpAck: PacketType.ACK.value,
    IcmpMessage: PacketType.ICMP.value,
}

# Module-level aliases: an enum member access is a class-attribute
# lookup on every record; a plain global is cheaper.
_WIRED_SEND = EventType.WIRED_SEND
_WIRED_DROP = EventType.WIRED_DROP
_WIRED_RECV = EventType.WIRED_RECV
_AIR_SEND = EventType.AIR_SEND
_AIR_RECV = EventType.AIR_RECV


def _line(record: _Record) -> str:
    time, event, place, kind, size_bytes, uid = record
    return (
        f"{time:.6f} {event.value} {place} "
        f"{_KIND_TEXT.get(kind, kind)} {size_bytes} {uid}"
    )


class EventLog(Observer):
    """Collects events; writable to / readable from text.

    As an observer it records what the links and the channel report,
    stamped with the simulator's clock.  Recording is cheap: each
    observation appends one plain tuple of what the observation point
    already holds; :class:`Event` records and text lines are built only
    when the log is read (:attr:`events`, :meth:`lines`, :meth:`write`).

    ``maxlen`` bounds the log to its most recent records (a ring): the
    validator keeps only the tail a replay bundle stores.  ``None``, the
    default, keeps every record.
    """

    def __init__(self, sim=None, maxlen: Optional[int] = None) -> None:
        self.sim = sim
        self._records: "List[_Record] | Deque[_Record]" = (
            [] if maxlen is None else deque(maxlen=maxlen)
        )
        self._append = self._records.append

    @property
    def events(self) -> List[Event]:
        """The kept records as :class:`Event` tuples, in recording order."""
        return [
            Event(time, event, place, _KIND_TEXT.get(kind, kind), size_bytes, uid)
            for time, event, place, kind, size_bytes, uid in self._records
        ]

    def record(
        self,
        time: float,
        event: EventType,
        place: str,
        kind: str,
        size_bytes: int,
        uid: int,
    ) -> None:
        """Append one event."""
        self._append((time, event, place, kind, size_bytes, uid))

    # The observation points below inline record(); ``sim._now`` is the
    # field behind ``sim.now`` without the property call.

    def wired_send(self, link, datagram, accepted: bool) -> None:
        """Record a ``wired_send`` (or ``wired_drop``) line."""
        self._append((self.sim._now, _WIRED_SEND if accepted else _WIRED_DROP,
                      link.name, datagram.payload.__class__,
                      datagram.size_bytes, datagram.uid))

    def wired_deliver(self, link, datagram) -> None:
        """Record a ``wired_recv`` line."""
        self._append((self.sim._now, _WIRED_RECV, link.name,
                      datagram.payload.__class__, datagram.size_bytes,
                      datagram.uid))

    def air_send(self, link, frame) -> None:
        """Record an ``air_send`` line."""
        self._append((self.sim._now, _AIR_SEND, link.name, frame.kind,
                      frame.size_bytes, frame.uid))

    def air_deliver(self, link, frame) -> None:
        """Record an ``air_recv`` line."""
        self._append((self.sim._now, _AIR_RECV, link.name, frame.kind,
                      frame.size_bytes, frame.uid))

    def channel_verdict(self, link, nbits: int, corrupted: bool) -> None:
        """Record a ``corrupt`` line for a corrupted frame."""
        if corrupted:
            self._append((self.sim._now, EventType.CORRUPT, "channel", "frame",
                          nbits // 8, link.channel.frames_tested))

    def __len__(self) -> int:
        return len(self._records)

    def lines(self) -> Iterator[str]:
        """Serialized trace lines, in recording order."""
        return map(_line, self._records)

    def write(self, fp: TextIO) -> int:
        """Write all lines to a file; returns the count."""
        count = 0
        for line in self.lines():
            fp.write(line + "\n")
            count += 1
        return count

    @classmethod
    def read(cls, fp: TextIO) -> "EventLog":
        """Parse a whitespace-format trace; blank lines are skipped.

        Raises :class:`TraceParseError` (with the 1-based line number)
        on the first malformed line.
        """
        log = cls()
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                log._append(Event.from_line(line))
            except TraceParseError as err:
                raise TraceParseError(f"line {lineno}: {err}") from None
        return log


def attach_to_scenario(scenario) -> EventLog:
    """Hook a fresh event log into a built (not yet run) Scenario."""
    log = EventLog(scenario.sim)
    scenario.observe(log)
    return log


class EventLogAnalyzer:
    """Post-processing over an :class:`EventLog`."""

    def __init__(self, log: EventLog) -> None:
        self.log = log

    def counts(self) -> Dict[EventType, int]:
        """Events per type."""
        out: Dict[EventType, int] = {}
        for event in self.log.events:
            out[event.event] = out.get(event.event, 0) + 1
        return out

    def bytes_by_event(self, event: EventType) -> int:
        """Total bytes across events of one type."""
        return sum(e.size_bytes for e in self.log.events if e.event is event)

    def delivered_series(
        self, bin_width: float, place: Optional[str] = None
    ) -> List[Tuple[float, int]]:
        """(bin start, bytes received on the air) per time bin."""
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        bins: Dict[int, int] = {}
        for e in self.log.events:
            if e.event is not EventType.AIR_RECV:
                continue
            if place is not None and e.place != place:
                continue
            bins[int(e.time / bin_width)] = (
                bins.get(int(e.time / bin_width), 0) + e.size_bytes
            )
        return [(k * bin_width, v) for k, v in sorted(bins.items())]

    def loss_runs(self) -> List[int]:
        """Lengths of consecutive-corruption runs on the channel.

        A bursty (two-state) channel produces long runs; a uniform
        channel produces mostly 1s.  Computed over the interleaved
        air-send/corrupt sequence.
        """
        runs: List[int] = []
        current = 0
        for e in self.log.events:
            if e.event is EventType.CORRUPT:
                current += 1
            elif e.event is EventType.AIR_RECV:
                if current:
                    runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return runs

    def mean_loss_run(self) -> float:
        """Average consecutive-loss run length (0.0 if lossless)."""
        runs = self.loss_runs()
        return sum(runs) / len(runs) if runs else 0.0
