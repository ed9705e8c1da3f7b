"""Figure 11: local-area wireless — data retransmitted vs bad period.

Same setup as Figure 10.  The paper's reading:

  * basic TCP retransmits large amounts of data (source timeouts dump
    whole windows back into the network);
  * with EBSN the goodput is ~100%: essentially zero source
    retransmissions at every bad-period length.
"""

from __future__ import annotations

from conftest import DEFAULT_REPS, SCALE, WORKERS, run_once

from repro.experiments.config import LAN_BAD_PERIODS
from repro.experiments.figures import figure_11
from repro.experiments.parallel import ParallelRunner


def _format(data):
    lines = [
        "Figure 11: LAN data retransmitted (KB) vs mean bad period, 4 MB transfer",
        f"(transfer scale {SCALE:g}, {DEFAULT_REPS} replications/point)",
        "",
        "bad(s)   basic TCP(KB)   EBSN(KB)   basic goodput   EBSN goodput",
    ]
    for bad in LAN_BAD_PERIODS:
        b = data["basic"].points[bad]
        e = data["ebsn"].points[bad]
        lines.append(
            f"{bad:6.1f}   {b.retransmitted_kbytes_mean:13.1f}"
            f"   {e.retransmitted_kbytes_mean:8.1f}   {b.goodput_mean:13.3f}"
            f"   {e.goodput_mean:12.3f}"
        )
    return "\n".join(lines)


def test_fig11_lan_retransmitted_data(benchmark, report):
    transfer = int(4 * 1024 * 1024 * SCALE)
    data = run_once(
        benchmark,
        lambda: figure_11(
            replications=DEFAULT_REPS, transfer_bytes=transfer,
            runner=ParallelRunner(workers=WORKERS),
        ),
    )
    report("fig11_lan_retx", _format(data))

    for bad in LAN_BAD_PERIODS:
        basic = data["basic"].points[bad]
        ebsn = data["ebsn"].points[bad]
        # Basic TCP retransmits a lot; EBSN almost nothing.
        assert basic.retransmitted_kbytes_mean > 20
        assert ebsn.retransmitted_kbytes_mean < 0.1 * basic.retransmitted_kbytes_mean
        # EBSN goodput ~100% (the paper's claim).
        assert ebsn.goodput_mean > 0.98
        assert basic.goodput_mean < 0.99
