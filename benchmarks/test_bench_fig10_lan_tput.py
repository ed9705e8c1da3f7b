"""Figure 10: local-area wireless — throughput vs mean bad period.

10 Mbps wired / 2 Mbps wireless, no fragmentation, 1536 B packets,
64 KB window, 4 MB transfer, mean good period 4 s, bad period
0.4-1.6 s.  The paper's reading:

  * TCP with EBSN clearly outperforms basic TCP, up to ~50% at the
    long-fade end;
  * EBSN tracks the theoretical maximum closely;
  * the gap grows with bad-period length.
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, STRICT, WORKERS, run_once

from repro.experiments.ascii_plot import plot_series
from repro.experiments.config import LAN_BAD_PERIODS
from repro.experiments.figures import figure_10, lan_theoretical_mbps
from repro.experiments.parallel import ParallelRunner


def _format(data):
    lines = [
        "Figure 10: LAN throughput (Mbps) vs mean bad period, 4 MB transfer",
        f"(transfer scale {SCALE:g}, {DEFAULT_REPS} replications/point)",
        "",
        "bad(s)   theoretical   basic TCP   EBSN    EBSN/basic",
    ]
    for bad in LAN_BAD_PERIODS:
        basic = data["basic"].points[bad].throughput_mbps
        ebsn = data["ebsn"].points[bad].throughput_mbps
        lines.append(
            f"{bad:6.1f}   {lan_theoretical_mbps(bad):11.3f}   {basic:9.3f}"
            f"   {ebsn:5.3f}   {ebsn / basic:9.2f}x"
        )
    curves = {
        "theoretical": [(b, lan_theoretical_mbps(b)) for b in LAN_BAD_PERIODS],
        "EBSN": [(b, data["ebsn"].points[b].throughput_mbps) for b in LAN_BAD_PERIODS],
        "basic": [(b, data["basic"].points[b].throughput_mbps) for b in LAN_BAD_PERIODS],
    }
    lines.append("")
    lines.append(
        plot_series(curves, width=64, height=14, x_label="mean bad period (s)",
                    y_label="throughput (Mbps)", y_min=0.0)
    )
    return "\n".join(lines)


def test_fig10_lan_throughput(benchmark, report):
    transfer = int(4 * 1024 * 1024 * SCALE)
    data = run_once(
        benchmark,
        lambda: figure_10(
            replications=DEFAULT_REPS, transfer_bytes=transfer,
            runner=ParallelRunner(workers=WORKERS),
        ),
    )
    report("fig10_lan_tput", _format(data))
    if not STRICT:
        # Smoke scale: the figure above is regenerated and saved, but
        # the paper-shape margins only hold at full scale.
        return


    basic = {b: data["basic"].points[b].throughput_mbps for b in LAN_BAD_PERIODS}
    ebsn = {b: data["ebsn"].points[b].throughput_mbps for b in LAN_BAD_PERIODS}

    for bad in LAN_BAD_PERIODS:
        # EBSN wins everywhere and never exceeds the theoretical max.
        assert ebsn[bad] > basic[bad]
        assert ebsn[bad] <= lan_theoretical_mbps(bad) * 1.02
        # EBSN tracks the theoretical maximum closely.
        assert ebsn[bad] > 0.85 * lan_theoretical_mbps(bad)

    # The improvement grows with bad-period length and reaches tens of
    # percent at the long end (paper: up to ~50%).  Margins relax at
    # reduced smoke scale, where a short transfer sees few fades.
    gain_short = ebsn[LAN_BAD_PERIODS[0]] / basic[LAN_BAD_PERIODS[0]]
    gain_long = ebsn[LAN_BAD_PERIODS[-1]] / basic[LAN_BAD_PERIODS[-1]]
    if SCALE >= 0.8:
        assert gain_long > gain_short
        assert gain_long > 1.25
    else:
        assert gain_long > 1.02

    # Throughput falls with longer fades for both schemes.
    assert basic[1.6] < basic[0.4]
    assert ebsn[1.6] < ebsn[0.4]
