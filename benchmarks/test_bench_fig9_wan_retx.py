"""Figure 9: data retransmitted vs packet size — basic TCP vs EBSN.

100 KB wide-area transfer, mean good period 10 s.  The paper's
reading:

  * for basic TCP the amount of retransmitted data grows with both
    packet size and bad-period length (fragmentation amplifies every
    loss into a whole-packet retransmission);
  * with EBSN the source retransmits almost nothing at any size.
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, WORKERS, run_once

from repro.experiments.config import WAN_BAD_PERIODS, WAN_PACKET_SIZES
from repro.experiments.figures import figure_9
from repro.experiments.parallel import ParallelRunner


def _format(data):
    lines = [
        "Figure 9: data retransmitted (KB) vs packet size, 100 KB transfer",
        f"(transfer scale {SCALE:g}, {DEFAULT_REPS} replications/point)",
    ]
    for label, series in data.items():
        lines.append("")
        lines.append(f"-- {label} --")
        lines.append("size(B)  " + "  ".join(f"bad={b:g}s" for b in WAN_BAD_PERIODS))
        for size in WAN_PACKET_SIZES:
            row = [f"{size:7d}"]
            for bad in WAN_BAD_PERIODS:
                row.append(f"{series[bad].points[size].retransmitted_kbytes_mean:7.1f}")
            lines.append("  ".join(row))
    return "\n".join(lines)


def test_fig9_retransmitted_data(benchmark, report):
    transfer = int(100 * 1024 * SCALE)
    data = run_once(
        benchmark, lambda: figure_9(
            replications=DEFAULT_REPS, transfer_bytes=transfer,
            runner=ParallelRunner(workers=WORKERS),
        )
    )
    report("fig9_wan_retx", _format(data))

    def retx(scheme, bad, size):
        return data[scheme][bad].points[size].retransmitted_kbytes_mean

    sizes = WAN_PACKET_SIZES

    # Basic TCP: retransmitted data grows with bad-period length
    # (mean over sizes), and large packets retransmit more than small.
    def mean_over_sizes(scheme, bad):
        return sum(retx(scheme, bad, s) for s in sizes) / len(sizes)

    assert mean_over_sizes("basic", 4.0) > mean_over_sizes("basic", 1.0)
    assert retx("basic", 4.0, 1536) > retx("basic", 4.0, 128)

    # EBSN: near-zero source retransmissions everywhere — an order of
    # magnitude below basic TCP.
    for bad in WAN_BAD_PERIODS:
        assert mean_over_sizes("ebsn", bad) < 0.25 * mean_over_sizes("basic", bad)
