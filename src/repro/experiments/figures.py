"""One entry point per paper figure.

Each ``figure_N`` function runs the experiment behind that figure and
returns the plotted data series (plus the theoretical-maximum lines
where the paper draws them).  The benchmark harness calls these and
prints the same rows the paper plots; EXPERIMENTS.md records the
comparison.

Transfer sizes can be scaled down (``transfer_bytes``) to trade
fidelity for runtime; defaults are the paper's.  The replicated
figures (7-11) run every seed through one ``runner``
(:class:`~repro.experiments.parallel.ParallelRunner`; ``None`` means
a default serial one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.config import (
    LAN_BAD_PERIODS,
    LAN_TRANSFER_BYTES,
    WAN_BAD_PERIODS,
    WAN_PACKET_SIZES,
    WAN_TRANSFER_BYTES,
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ReplicatedResult, run_replicated
from repro.experiments.topology import ScenarioResult, Scheme, run_scenario
from repro.metrics.theoretical import theoretical_throughput_bps


@dataclass
class SweepSeries:
    """One plotted curve: x values → aggregated results."""

    label: str
    points: Dict[float, ReplicatedResult] = field(default_factory=dict)

    def throughputs_kbps(self) -> List[float]:
        """The curve's y-values in kbit/s, in x order."""
        return [r.throughput_kbps for r in self.points.values()]

    def retransmitted_kbytes(self) -> List[float]:
        """The curve's retransmitted-KB values, in x order."""
        return [r.retransmitted_kbytes_mean for r in self.points.values()]


# ---------------------------------------------------------------------------
# Figures 3-5: the deterministic trace example
# ---------------------------------------------------------------------------

#: The scheme each trace figure shows.
TRACE_FIGURE_SCHEMES = {
    3: Scheme.BASIC,
    4: Scheme.LOCAL_RECOVERY,
    5: Scheme.EBSN,
}


def trace_figure(figure_number: int) -> ScenarioResult:
    """Run the §4.2.1 example for Fig 3 (basic), 4 (local), or 5 (EBSN)."""
    if figure_number not in TRACE_FIGURE_SCHEMES:
        raise ValueError(f"trace figures are 3, 4, 5; got {figure_number}")
    config = trace_example_scenario(TRACE_FIGURE_SCHEMES[figure_number])
    return run_scenario(config)


# ---------------------------------------------------------------------------
# Figures 7-9: WAN packet-size sweeps
# ---------------------------------------------------------------------------


def _wan_packet_sweep(
    scheme: Scheme,
    bad_periods: Optional[List[float]],
    packet_sizes: Optional[List[int]],
    replications: int,
    transfer_bytes: int,
    runner: Optional[ParallelRunner],
) -> Dict[float, SweepSeries]:
    """One curve per bad period over the packet sizes (default: the paper's)."""
    series: Dict[float, SweepSeries] = {}
    for bad in bad_periods or WAN_BAD_PERIODS:
        curve = SweepSeries(label=f"bad period = {bad:g} sec")
        for size in packet_sizes or WAN_PACKET_SIZES:
            config = wan_scenario(
                scheme=scheme,
                packet_size=size,
                bad_period_mean=bad,
                transfer_bytes=transfer_bytes,
                record_trace=False,
            )
            curve.points[size] = run_replicated(config, replications, runner=runner)
        series[bad] = curve
    return series


def figure_7(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    runner: Optional[ParallelRunner] = None,
) -> Dict[float, SweepSeries]:
    """Fig 7: basic TCP throughput vs packet size, one curve per bad period."""
    return _wan_packet_sweep(
        Scheme.BASIC, bad_periods, packet_sizes, replications, transfer_bytes, runner
    )


def figure_8(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    runner: Optional[ParallelRunner] = None,
) -> Dict[float, SweepSeries]:
    """Fig 8: EBSN throughput vs packet size, one curve per bad period."""
    return _wan_packet_sweep(
        Scheme.EBSN, bad_periods, packet_sizes, replications, transfer_bytes, runner
    )


def figure_9(
    replications: int = 3,
    packet_sizes: Optional[List[int]] = None,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = WAN_TRANSFER_BYTES,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Dict[float, SweepSeries]]:
    """Fig 9: data retransmitted vs packet size — basic TCP vs EBSN."""
    return {
        scheme.value: _wan_packet_sweep(
            scheme, bad_periods, packet_sizes, replications, transfer_bytes, runner
        )
        for scheme in (Scheme.BASIC, Scheme.EBSN)
    }


def wan_theoretical_kbps(bad_period_mean: float, good_period_mean: float = 10.0) -> float:
    """tput_th for the WAN study (12.8 kbps effective), in kbit/s."""
    return (
        theoretical_throughput_bps(12_800.0, good_period_mean, bad_period_mean) / 1000.0
    )


# ---------------------------------------------------------------------------
# Figures 10-11: LAN bad-period sweeps
# ---------------------------------------------------------------------------


def _lan_bad_sweep(
    scheme: Scheme,
    bad_periods: List[float],
    replications: int,
    transfer_bytes: int,
    runner: Optional[ParallelRunner],
) -> SweepSeries:
    curve = SweepSeries(label=scheme.value)
    for bad in bad_periods:
        config = lan_scenario(
            scheme=scheme, bad_period_mean=bad, transfer_bytes=transfer_bytes
        )
        curve.points[bad] = run_replicated(config, replications, runner=runner)
    return curve


def figure_10(
    replications: int = 3,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = LAN_TRANSFER_BYTES,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, SweepSeries]:
    """Fig 10: LAN throughput vs bad period — basic vs EBSN (+ tput_th)."""
    bads = bad_periods or LAN_BAD_PERIODS
    return {
        scheme.value: _lan_bad_sweep(
            scheme, bads, replications, transfer_bytes, runner
        )
        for scheme in (Scheme.BASIC, Scheme.EBSN)
    }


def figure_11(
    replications: int = 3,
    bad_periods: Optional[List[float]] = None,
    transfer_bytes: int = LAN_TRANSFER_BYTES,
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, SweepSeries]:
    """Fig 11: LAN data retransmitted vs bad period — basic vs EBSN."""
    return figure_10(replications, bad_periods, transfer_bytes, runner=runner)


def lan_theoretical_mbps(bad_period_mean: float, good_period_mean: float = 4.0) -> float:
    """tput_th for the LAN study (2 Mbps), in Mbit/s."""
    return theoretical_throughput_bps(2e6, good_period_mean, bad_period_mean) / 1e6
