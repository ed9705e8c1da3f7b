"""Point-to-point wired link.

A unidirectional serializing link: datagrams queue behind the
transmitter, each occupies the line for ``size · 8 / bandwidth``
seconds, then arrives ``prop_delay`` later.  Wired links are error
free (the paper's premise: on wired links virtually all loss is
congestion).  A duplex connection is two instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine import Simulator
from repro.net.packet import Datagram
from repro.net.queues import DropTailQueue


@dataclass(slots=True)
class LinkStats:
    """Transmission counters shared by wired and wireless links."""

    offered: int = 0
    transmitted: int = 0
    delivered: int = 0
    corrupted: int = 0
    bytes_transmitted: int = 0
    busy_time: float = 0.0

    def loss_rate(self) -> float:
        """Fraction of transmitted frames corrupted in flight."""
        return self.corrupted / self.transmitted if self.transmitted else 0.0


class WiredLink:
    """One direction of a wired link.

    >>> from repro.engine import Simulator
    >>> from repro.net.packet import Datagram, TcpAck
    >>> sim = Simulator()
    >>> got = []
    >>> link = WiredLink(sim, bandwidth_bps=56_000, prop_delay=0.01)
    >>> link.connect(got.append)
    >>> link.send(Datagram("FH", "MH", TcpAck(0), 40))
    >>> sim.run()
    >>> len(got), round(sim.now, 6)   # 40*8/56000 + 0.01
    (1, 0.015714)
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        prop_delay: float,
        queue_capacity: Optional[int] = None,
        name: str = "wired",
        ecn_threshold: Optional[int] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if prop_delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay}")
        if ecn_threshold is not None and ecn_threshold < 1:
            raise ValueError(f"ecn_threshold must be >= 1, got {ecn_threshold}")
        self._sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.name = name
        self.queue: DropTailQueue[Datagram] = DropTailQueue(queue_capacity, name=f"{name}.q")
        #: ECN gateway behaviour: mark datagrams that arrive to a
        #: queue at least this deep (None = ECN off).
        self.ecn_threshold = ecn_threshold
        self.ecn_marks = 0
        self.stats = LinkStats()
        self._receiver: Optional[Callable[[Datagram], None]] = None
        self._busy = False
        self.observer = None

    def connect(self, receiver: Callable[[Datagram], None]) -> None:
        """Set the far-end delivery callback."""
        self._receiver = receiver

    @property
    def busy(self) -> bool:
        """True while a datagram is being serialized onto the line."""
        return self._busy

    def tx_time(self, size_bytes: int) -> float:
        """Serialization time for a datagram of ``size_bytes``."""
        return size_bytes * 8 / self.bandwidth_bps

    def send(self, datagram: Datagram) -> bool:
        """Queue a datagram for transmission; False if the queue dropped it."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        self.stats.offered += 1
        if self.ecn_threshold is not None and len(self.queue) >= self.ecn_threshold:
            datagram.ecn_marked = True
            self.ecn_marks += 1
        accepted = self.queue.offer(datagram, datagram.size_bytes)
        if accepted and not self._busy:
            self._start_next()
        if self.observer is not None:
            self.observer.wired_send(self, datagram, accepted)
        return accepted

    def _start_next(self) -> None:
        datagram = self.queue.poll()
        if datagram is None:
            self._busy = False
            return
        self._busy = True
        duration = self.tx_time(datagram.size_bytes)
        self._sim.schedule(duration, self._tx_done, datagram, duration)

    def _tx_done(self, datagram: Datagram, duration: float) -> None:
        self.stats.transmitted += 1
        self.stats.bytes_transmitted += datagram.size_bytes
        self.stats.busy_time += duration
        self.stats.delivered += 1
        assert self._receiver is not None
        receiver = self._receiver if self.observer is None else self._observed_delivery
        self._sim.schedule(self.prop_delay, receiver, datagram)
        self._start_next()

    def _observed_delivery(self, datagram: Datagram) -> None:
        self.observer.wired_deliver(self, datagram)
        self._receiver(datagram)
