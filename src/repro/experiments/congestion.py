"""Wired congestion and the ECN/EBSN interaction (§6 future work).

The paper assumes an uncongested wired network and defers "the impact
of congestion in the wired network on the effectiveness of EBSN ...
[and] the interaction between ECN and EBSN" to follow-up work.  This
module builds that experiment:

    FH ──fast──▶ R ══ 56 kbps bottleneck (bounded queue, optional ECN
    XS ──fast──▶ R     marking) ══▶ BS ──wireless──▶ MH

``XS`` is a constant-bit-rate cross-traffic source that terminates at
the base station, loading the bottleneck to a configurable fraction of
its capacity.  Congestion now produces *real* drops (or ECN marks) on
the wired segment while the wireless hop keeps producing fades, so a
source may receive congestion signals and EBSNs in the same
connection: ECN must shrink the window, EBSN must only re-arm the
timer, and neither may mask the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.engine import Simulator
from repro.metrics import ConnectionMetrics
from repro.net.link import WiredLink
from repro.net.node import Node
from repro.net.packet import Datagram, TcpSegment
from repro.net.wireless import WirelessLinkConfig
from repro.experiments.topology import (
    ChannelConfig,
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    Scheme,
)
from repro.tcp import TcpConfig


class CbrSource:
    """Constant-bit-rate cross traffic (UDP-like: no feedback, no
    retransmission)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: str,
        rate_bps: float,
        packet_size: int = 576,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self._sim = sim
        self._node = node
        self.dst = dst
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.interval = packet_size * 8 / rate_bps
        self.packets_sent = 0
        self._seq = 0
        self._running = False

    def start(self) -> None:
        """Begin emitting packets at the configured rate."""
        self._running = True
        self._sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Stop emitting (pending ticks become no-ops)."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        segment = TcpSegment(
            seq=self._seq, payload_bytes=self.packet_size - 40, sent_at=self._sim.now
        )
        self._seq += 1
        self._node.send(
            Datagram(self._node.name, self.dst, segment, self.packet_size)
        )
        self.packets_sent += 1
        self._sim.schedule(self.interval, self._tick)


class CbrSink:
    """Counts cross-traffic arrivals at the base station."""

    def __init__(self) -> None:
        self.packets_received = 0
        self.bytes_received = 0

    def receive(self, datagram: Datagram) -> None:
        """Count one cross-traffic arrival."""
        self.packets_received += 1
        self.bytes_received += datagram.size_bytes


@dataclass
class CongestedScenarioConfig:
    """One run of the congestion/ECN/EBSN interaction experiment."""

    scheme: Scheme = Scheme.BASIC  # BASIC or EBSN
    ecn: bool = False
    #: Cross-traffic load as a fraction of the bottleneck capacity.
    cross_load: float = 0.5
    bottleneck_bps: float = 56_000.0
    bottleneck_queue_packets: int = 10
    ecn_threshold_packets: int = 4
    access_bps: float = 1_000_000.0
    wired_prop_delay: float = 0.01
    tcp: TcpConfig = field(
        default_factory=lambda: TcpConfig(transfer_bytes=60 * 1024)
    )
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    wireless: WirelessLinkConfig = field(default_factory=WirelessLinkConfig)
    seed: int = 1
    max_sim_time: float = 50_000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_load < 1.5:
            raise ValueError(f"cross_load out of range: {self.cross_load}")
        if self.scheme not in (Scheme.BASIC, Scheme.EBSN):
            raise ValueError("congestion study supports BASIC and EBSN only")


@dataclass
class CongestedScenarioResult:
    metrics: ConnectionMetrics
    completed: bool
    bottleneck_drops: int
    ecn_marks: int
    ecn_responses: int
    ebsn_received: int
    timeouts: int
    fast_retransmits: int
    cross_packets_delivered: int


class CongestedScenario(Scenario):
    """The Fig. 2 path with a congested, routed wired segment.

    Everything but the wired segment — the wireless hop, its ARQ and
    EBSN feedback, the TCP endpoints — is :class:`Scenario`'s own;
    only :meth:`_build_wired` is replaced, and the cross traffic is
    added around it.
    """

    def __init__(self, config: CongestedScenarioConfig) -> None:
        self.congestion = config
        super().__init__(
            ScenarioConfig(
                scheme=config.scheme,
                tcp=config.tcp,
                channel=config.channel,
                wireless=config.wireless,
                seed=config.seed,
                record_trace=False,
                max_sim_time=config.max_sim_time,
            )
        )
        self.sender.ecn_enabled = config.ecn
        self.cross_sink = CbrSink()
        self.bs.attach_agent(self.cross_sink)
        self.cross = CbrSource(
            self.sim,
            self.xs,
            "BS",
            rate_bps=config.cross_load * config.bottleneck_bps,
            packet_size=config.tcp.packet_size,
        )

    def _build_wired(self) -> Tuple[WiredLink, ...]:
        """FH and XS → R → BS, with the bottleneck on R → BS."""
        config = self.congestion
        sim, fh, bs = self.sim, self.fh, self.bs
        self.xs, self.router = xs, router = Node("XS"), Node("R")

        # Access links into the router (never the bottleneck).
        fh_r = WiredLink(sim, config.access_bps, config.wired_prop_delay, name="FH->R")
        xs_r = WiredLink(sim, config.access_bps, config.wired_prop_delay, name="XS->R")
        # The bottleneck, with a bounded queue and optional ECN marking.
        self.bottleneck = r_bs = WiredLink(
            sim,
            config.bottleneck_bps,
            config.wired_prop_delay,
            queue_capacity=config.bottleneck_queue_packets,
            ecn_threshold=config.ecn_threshold_packets if config.ecn else None,
            name="R->BS",
        )
        # Reverse path (ACKs, EBSNs) — uncongested.
        bs_r = WiredLink(sim, config.bottleneck_bps, config.wired_prop_delay, name="BS->R")
        r_fh = WiredLink(sim, config.access_bps, config.wired_prop_delay, name="R->FH")

        fh_r.connect(router.receive)
        xs_r.connect(router.receive)
        r_bs.connect(bs.receive)
        bs_r.connect(router.receive)
        r_fh.connect(fh.receive)

        fh.add_interface("wired", fh_r.send, "MH", "BS", "R")
        xs.add_interface("wired", xs_r.send, "BS")
        router.add_interface("down", r_bs.send, "MH", "BS")
        router.add_interface("up", r_fh.send, "FH")
        bs.add_interface("up", bs_r.send, "FH")
        return fh_r, xs_r, r_bs, bs_r, r_fh

    def run(self, wall_timeout: Optional[float] = None) -> ScenarioResult:
        """Start the cross traffic, then run the transfer.

        The cross traffic is scheduled before the sender starts: events
        at equal times fire in scheduling order, so this order is part
        of the study's results.
        """
        self.cross.start()
        return super().run(wall_timeout=wall_timeout)


def run_congested_scenario(config: CongestedScenarioConfig) -> CongestedScenarioResult:
    """Build and run the FH/XS → R → BS → MH topology."""
    scenario = CongestedScenario(config)
    result = scenario.run()
    sender = scenario.sender
    return CongestedScenarioResult(
        metrics=result.metrics,
        completed=result.completed,
        bottleneck_drops=scenario.bottleneck.queue.stats.dropped,
        ecn_marks=scenario.bottleneck.ecn_marks,
        ecn_responses=sender.stats.ecn_responses,
        ebsn_received=sender.stats.ebsn_received,
        timeouts=sender.stats.timeouts,
        fast_retransmits=sender.stats.fast_retransmits,
        cross_packets_delivered=scenario.cross_sink.packets_received,
    )
