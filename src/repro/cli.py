"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``    — one transfer under a chosen scheme; print metrics.
* ``trace``  — render the paper's Fig 3/4/5 trace plots.
* ``sweep``  — packet-size (WAN) or bad-period (LAN) sweep.
* ``figure`` — regenerate a paper figure's data series (7-11).
* ``csdp``   — the multi-connection scheduling study.
* ``handoff``— the two-cell handoff study.
* ``congestion`` — the wired-congestion / ECN / EBSN interaction.
* ``validate`` — run every claim check and print a ✓/✗ report.
* ``replay`` — re-run a recorded invariant-violation bundle.
* ``profile`` — cProfile one run; hot functions + perf counters.
* ``report`` — assemble benchmarks/out/*.txt into one REPORT.md.

Simulation commands accept ``--validate`` to attach the runtime
invariant engine (:mod:`repro.validate`); a violation aborts the
command with exit code 3 and prints the replay-bundle path.

The multi-run commands (``sweep``, ``figure``) are fault-tolerant:
``--timeout`` bounds each unit's wall-clock time, ``--retries`` bounds
how often a timed-out or crashed unit is re-run, ``--resume JOURNAL``
checkpoints completed units to a journal directory (and skips them
when re-invoked after a crash or Ctrl-C), and ``--fail-fast`` aborts
on the first quarantined unit instead of degrading to partial
aggregates.  Partial aggregates print an explicit completeness report
and exit 1; an aborted campaign exits 4; SIGINT/SIGTERM exits 130
after flushing the journal; a ``--resume`` path that exists but is not
a directory exits 2 before any unit runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro.csdp import CsdpStudyConfig, run_csdp_study
from repro.experiments.ascii_plot import format_table
from repro.experiments.config import (
    LAN_BAD_PERIODS,
    WAN_BAD_PERIODS,
    WAN_PACKET_SIZES,
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.figures import (
    TRACE_FIGURE_SCHEMES,
    SweepSeries,
    figure_7,
    figure_8,
    figure_9,
    figure_10,
    figure_11,
    lan_theoretical_mbps,
    wan_theoretical_kbps,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.faults import (
    CampaignError,
    CampaignInterrupted,
    CompletenessReport,
    RetryPolicy,
    merge_reports,
)
from repro.experiments.journal import CampaignJournal
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import run_replicated
from repro.experiments.topology import Scheme, run_scenario

SCHEMES = {s.value: s for s in Scheme}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--scheme",
        choices=sorted(SCHEMES),
        default="ebsn",
        help="recovery scheme (default: ebsn)",
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    """Parallel-engine knobs shared by the multi-run commands."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for seed fan-out (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"disable the on-disk result cache ({default_cache_dir()})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per simulation unit; a unit past it is "
        "killed, retried, and eventually quarantined",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-runs allowed per timed-out/crashed unit "
        "(default: the engine's retry policy)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="checkpoint journal directory: completed units are recorded "
        "as they finish and skipped on re-invocation (created if missing)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole campaign on the first quarantined unit "
        "(default: degrade to partial aggregates and report what's missing)",
    )


def _run_campaign_command(args: argparse.Namespace, body) -> int:
    """Run ``body(args, runner)`` on the runner the engine flags describe.

    sweep/figure execute every unit on this one runner.  A ``--resume``
    path that exists but is not a directory exits 2 before any unit runs.
    """
    resume = args.resume
    if resume and os.path.exists(resume) and not os.path.isdir(resume):
        print(f"--resume {resume} is not a directory (a journal is)", file=sys.stderr)
        return 2
    runner = ParallelRunner(
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        validate=args.validate,
        timeout=args.timeout,
        retry=None if args.retries is None else RetryPolicy(max_retries=args.retries),
        fail_fast=args.fail_fast,
        journal=CampaignJournal(resume) if resume else None,
    )
    return body(args, runner)


def _finish_campaign(report: CompletenessReport) -> int:
    """Print the completeness report; exit 1 when aggregates are partial."""
    print()
    print(report.describe())
    return 0 if report.complete else 1


def _add_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach the runtime invariant engine to every simulated run",
    )


def _single_run_validate(args: argparse.Namespace) -> Optional[bool]:
    """``run_scenario``'s validate arg: explicit on, else process default."""
    return True if args.validate else None


def _run_config(args: argparse.Namespace):
    """The one-transfer config ``run`` and ``profile`` share."""
    scheme = SCHEMES[args.scheme]
    if args.lan:
        return lan_scenario(
            scheme=scheme,
            bad_period_mean=args.bad_period,
            transfer_bytes=args.transfer_kb * 1024,
            seed=args.seed,
        )
    return wan_scenario(
        scheme=scheme,
        packet_size=args.packet_size,
        bad_period_mean=args.bad_period,
        transfer_bytes=args.transfer_kb * 1024,
        seed=args.seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    result = run_scenario(config, validate=_single_run_validate(args))
    m = result.metrics
    unit = "Mbps" if args.lan else "kbps"
    tput = m.throughput_bps / (1e6 if args.lan else 1e3)
    tput_th = result.tput_th_bps / (1e6 if args.lan else 1e3)
    print(f"scheme            : {config.scheme.value}")
    print(f"completed         : {result.completed}")
    print(f"duration          : {m.duration:.2f} s")
    print(f"throughput        : {tput:.3f} {unit}  (theoretical max {tput_th:.3f})")
    print(f"goodput           : {m.goodput * 100:.1f} %")
    print(f"timeouts          : {m.timeouts}")
    print(f"fast retransmits  : {m.fast_retransmits}")
    print(f"retransmitted     : {m.retransmitted_kbytes:.1f} KB")
    return 0 if result.completed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    result = run_scenario(
        trace_example_scenario(SCHEMES[args.scheme]),
        validate=_single_run_validate(args),
    )
    m = result.metrics
    print(
        f"{args.scheme}: {m.throughput_kbps:.2f} kbps, goodput "
        f"{m.goodput * 100:.1f}%, {m.timeouts} timeouts, "
        f"{m.retransmissions} source retransmissions"
    )
    print(result.trace.render(width=args.width, t_max=args.t_max))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_campaign_command(args, _run_sweep)


def _run_sweep(args: argparse.Namespace, runner: ParallelRunner) -> int:
    scheme = SCHEMES[args.scheme]
    reports: List[CompletenessReport] = []
    rows = []
    if args.lan:
        for bad in LAN_BAD_PERIODS:
            r = run_replicated(
                lan_scenario(
                    scheme=scheme,
                    bad_period_mean=bad,
                    transfer_bytes=args.transfer_kb * 1024,
                ),
                replications=args.replications,
                base_seed=args.seed,
                runner=runner,
            )
            reports.append(r.report)
            rows.append(
                [
                    f"{bad:g}",
                    f"{r.throughput_mbps:.3f}",
                    f"{lan_theoretical_mbps(bad):.3f}",
                    f"{r.goodput_mean:.3f}",
                    f"{r.timeouts_mean:.1f}",
                ]
            )
        print(
            format_table(
                ["bad(s)", "tput(Mbps)", "tput_th", "goodput", "timeouts/run"],
                rows,
                title=f"LAN sweep, scheme={scheme.value}:",
            )
        )
    else:
        for size in WAN_PACKET_SIZES:
            r = run_replicated(
                wan_scenario(
                    scheme=scheme,
                    packet_size=size,
                    bad_period_mean=args.bad_period,
                    transfer_bytes=args.transfer_kb * 1024,
                    record_trace=False,
                ),
                replications=args.replications,
                base_seed=args.seed,
                runner=runner,
            )
            reports.append(r.report)
            rows.append(
                [
                    f"{size}",
                    f"{r.throughput_kbps:.2f}",
                    f"{r.goodput_mean:.3f}",
                    f"{r.timeouts_mean:.1f}",
                ]
            )
        print(
            format_table(
                ["size(B)", "tput(kbps)", "goodput", "timeouts/run"],
                rows,
                title=(
                    f"WAN packet-size sweep, scheme={scheme.value}, "
                    f"bad={args.bad_period:g}s "
                    f"(tput_th={wan_theoretical_kbps(args.bad_period):.2f} kbps):"
                ),
            )
        )
    return _finish_campaign(merge_reports(reports))


def _figure_reports(data) -> List[CompletenessReport]:
    """Every completeness report buried in a figure's nested series."""
    reports: List[CompletenessReport] = []

    def walk(obj) -> None:
        if isinstance(obj, dict):
            for value in obj.values():
                walk(value)
        elif isinstance(obj, SweepSeries):
            for result in obj.points.values():
                if result.report is not None:
                    reports.append(result.report)

    walk(data)
    return reports


def _cmd_figure(args: argparse.Namespace) -> int:
    n = args.number
    if n in (3, 4, 5):
        result = run_scenario(
            trace_example_scenario(TRACE_FIGURE_SCHEMES[n]),
            validate=_single_run_validate(args),
        )
        print(result.trace.render(width=100, t_max=60.0, title=f"Figure {n}"))
        return 0
    return _run_campaign_command(args, _run_figure)


def _run_figure(args: argparse.Namespace, runner: ParallelRunner) -> int:
    n = args.number
    reps = args.replications
    if n == 7 or n == 8:
        series = (figure_7 if n == 7 else figure_8)(replications=reps, runner=runner)
        header = ["size(B)"] + [f"bad={b:g}s" for b in WAN_BAD_PERIODS]
        rows = [
            [str(size)]
            + [f"{series[b].points[size].throughput_kbps:.2f}" for b in WAN_BAD_PERIODS]
            for size in WAN_PACKET_SIZES
        ]
        rows.append(["tput_th"] + [f"{wan_theoretical_kbps(b):.2f}" for b in WAN_BAD_PERIODS])
        print(format_table(header, rows, title=f"Figure {n} (throughput, kbps):"))
        return _finish_campaign(merge_reports(_figure_reports(series)))
    if n == 9:
        data = figure_9(replications=reps, runner=runner)
        for label, series in data.items():
            header = ["size(B)"] + [f"bad={b:g}s" for b in WAN_BAD_PERIODS]
            rows = [
                [str(size)]
                + [
                    f"{series[b].points[size].retransmitted_kbytes_mean:.1f}"
                    for b in WAN_BAD_PERIODS
                ]
                for size in WAN_PACKET_SIZES
            ]
            print(format_table(header, rows, title=f"Figure 9, {label} (KB retransmitted):"))
        return _finish_campaign(merge_reports(_figure_reports(data)))
    if n in (10, 11):
        data = (
            figure_10(replications=reps, runner=runner)
            if n == 10
            else figure_11(replications=reps, runner=runner)
        )
        if n == 10:
            rows = [
                [
                    f"{bad:g}",
                    f"{lan_theoretical_mbps(bad):.3f}",
                    f"{data['basic'].points[bad].throughput_mbps:.3f}",
                    f"{data['ebsn'].points[bad].throughput_mbps:.3f}",
                ]
                for bad in LAN_BAD_PERIODS
            ]
            print(
                format_table(
                    ["bad(s)", "tput_th", "basic(Mbps)", "ebsn(Mbps)"],
                    rows,
                    title="Figure 10:",
                )
            )
        else:
            rows = [
                [
                    f"{bad:g}",
                    f"{data['basic'].points[bad].retransmitted_kbytes_mean:.1f}",
                    f"{data['ebsn'].points[bad].retransmitted_kbytes_mean:.1f}",
                ]
                for bad in LAN_BAD_PERIODS
            ]
            print(
                format_table(
                    ["bad(s)", "basic(KB)", "ebsn(KB)"], rows, title="Figure 11:"
                )
            )
        return _finish_campaign(merge_reports(_figure_reports(data)))
    print(f"unknown figure {n}; know 3, 4, 5, 7, 8, 9, 10, 11", file=sys.stderr)
    return 2


def _cmd_csdp(args: argparse.Namespace) -> int:
    rows = []
    for sched in ("fifo", "rr", "csdp"):
        result = run_csdp_study(
            CsdpStudyConfig(
                scheduler=sched,
                n_connections=args.connections,
                transfer_bytes=args.transfer_kb * 1024,
                seed=args.seed,
            )
        )
        rows.append(
            [
                sched,
                f"{result.aggregate_throughput_bps / 1000:.2f}",
                f"{result.radio.idle_blocked_time:.1f}",
                f"{result.total_timeouts}",
                f"{result.fairness_index:.3f}",
            ]
        )
    print(
        format_table(
            ["scheduler", "aggregate(kbps)", "HOL idle(s)", "timeouts", "fairness"],
            rows,
            title=f"{args.connections} connections, independent fading:",
        )
    )
    return 0


def _cmd_handoff(args: argparse.Namespace) -> int:
    from repro.handoff import HandoffConfig, HandoffScheme, run_handoff_scenario

    rows = []
    for scheme in HandoffScheme:
        tput = timeouts = 0.0
        for seed in range(1, args.seeds + 1):
            result = run_handoff_scenario(
                HandoffConfig(
                    scheme=scheme,
                    handoff_interval=args.interval,
                    disconnect_time=args.disconnect,
                    transfer_bytes=args.transfer_kb * 1024,
                    seed=seed,
                )
            )
            tput += result.metrics.throughput_kbps / args.seeds
            timeouts += result.timeouts / args.seeds
        rows.append([scheme.value, f"{tput:.2f}", f"{timeouts:.1f}"])
    print(
        format_table(
            ["scheme", "tput(kbps)", "timeouts/run"],
            rows,
            title=(
                f"Handoff every {args.interval:g} s, "
                f"{args.disconnect * 1000:.0f} ms outage:"
            ),
        )
    )
    return 0


def _cmd_congestion(args: argparse.Namespace) -> int:
    from repro.experiments.congestion import (
        CongestedScenarioConfig,
        run_congested_scenario,
    )

    rows = []
    for scheme in (Scheme.BASIC, Scheme.EBSN):
        for ecn in (False, True):
            tput = drops = timeouts = 0.0
            for seed in range(1, args.seeds + 1):
                result = run_congested_scenario(
                    CongestedScenarioConfig(
                        scheme=scheme, ecn=ecn, cross_load=args.load, seed=seed
                    )
                )
                tput += result.metrics.throughput_kbps / args.seeds
                drops += result.bottleneck_drops / args.seeds
                timeouts += result.timeouts / args.seeds
            rows.append(
                [
                    scheme.value,
                    "on" if ecn else "off",
                    f"{tput:.2f}",
                    f"{drops:.1f}",
                    f"{timeouts:.1f}",
                ]
            )
    print(
        format_table(
            ["scheme", "ECN", "tput(kbps)", "drops", "timeouts"],
            rows,
            title=f"Bottleneck at {args.load:.0%} cross load:",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.claims import validate_all

    results = validate_all(scale=args.scale, seeds=args.seeds)
    width = max(len(c.statement) for c, _ in results)
    failures = 0
    for claim, result in results:
        mark = "\u2713" if result.passed else "\u2717"
        if not result.passed:
            failures += 1
        print(f"[{mark}] {claim.source:8s} {claim.statement:<{width}}  {result.detail}")
    total = len(results)
    print(f"\n{total - failures}/{total} claims validated "
          f"(scale {args.scale:g}, {args.seeds} seeds)")
    return 0 if failures == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.validate.bundle import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as err:
        print(f"cannot load bundle {args.bundle}: {err}", file=sys.stderr)
        return 2
    print(f"bundle    : {args.bundle}")
    print(f"captured  : {len(bundle.violations)} violation(s), "
          f"seed {bundle.config.seed}, scheme {bundle.config.scheme.value}")
    for violation in bundle.violations:
        print(f"  - {violation.describe()}")
    outcome = replay_bundle(args.bundle)
    if not outcome.code_matches:
        print("note      : code has changed since capture "
              "(digest mismatch); replay may diverge")
    if outcome.reproduced:
        print(f"replayed  : REPRODUCED — {len(outcome.violations)} violation(s)")
        for violation in outcome.violations:
            print(f"  - {violation.describe()}")
        return 0
    if outcome.violations:
        print(f"replayed  : DIFFERENT violations ({len(outcome.violations)}):")
        for violation in outcome.violations:
            print(f"  - {violation.describe()}")
    else:
        print("replayed  : no violation reproduced (run was clean)")
    return 1


#: Display order for the assembled report: paper figures first, then
#: the negative results, then the extension studies and ablations.
_REPORT_ORDER = [
    "fig3_5_summary",
    "fig3_trace_basic",
    "fig4_trace_local_recovery",
    "fig5_trace_ebsn",
    "fig7_wan_basic",
    "fig8_wan_ebsn",
    "fig9_wan_retx",
    "fig10_lan_tput",
    "fig11_lan_retx",
    "quench_negative",
    "snoop_vs_ebsn",
    "csdp_scheduling",
    "congestion_ecn_ebsn",
    "handoff_schemes",
    "ablation_granularity",
    "ablation_rtmax",
    "ablation_robust_timer",
    "ablation_tcp_variant",
    "ablation_arq_window",
    "ablation_window",
    "snoop_loss_regime",
    "interactive_latency",
    "energy_per_scheme",
]


def _profile_config(args: argparse.Namespace):
    return replace(_run_config(args), record_trace=False)


def _print_perf_summary(scenario) -> None:
    sim = scenario.sim
    channel = scenario.channel
    counters = sim.perf_counters()
    hits = channel.fast_path_hits
    misses = channel.fast_path_misses
    total = hits + misses
    print(f"events executed   : {counters['events_executed']}")
    print(f"wall time         : {counters['run_wall_seconds']:.4f} s")
    print(f"events/sec        : {counters['events_per_sec']:,.0f}")
    print(f"heap pushes       : {counters['heap_pushes']}")
    print(f"heap compactions  : {counters['heap_compactions']}")
    print(f"frames tested     : {channel.frames_tested}")
    if total:
        print(
            f"channel fast path : {hits}/{total} hits ({hits / total:.1%})"
        )


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one uninstrumented run and report the hot functions."""
    import cProfile
    import pstats

    from repro.experiments.topology import Scenario

    scenario = Scenario(_profile_config(args))
    if args.events_per_sec:
        scenario.run()
        _print_perf_summary(scenario)
        return 0
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    _print_perf_summary(scenario)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    out_dir = Path(args.out_dir)
    if not out_dir.is_dir():
        print(
            f"{out_dir} not found — run `pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    available = {p.stem: p for p in sorted(out_dir.glob("*.txt"))}
    ordered = [n for n in _REPORT_ORDER if n in available]
    ordered += [n for n in sorted(available) if n not in _REPORT_ORDER]
    if not ordered:
        print(f"no .txt outputs in {out_dir}", file=sys.stderr)
        return 2
    sections = ["# Benchmark report", "",
                "Assembled from the figure benchmarks' saved outputs.", ""]
    for name in ordered:
        sections.append(f"## {name}")
        sections.append("")
        sections.append("```")
        sections.append(available[name].read_text().rstrip())
        sections.append("```")
        sections.append("")
    report_path = Path(args.output)
    report_path.write_text("\n".join(sections))
    print(f"wrote {report_path} ({len(ordered)} sections)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TCP-over-wireless reproduction (ICDCS '97): run the "
        "paper's experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one transfer and print metrics")
    _add_common(p)
    p.add_argument("--lan", action="store_true", help="LAN config instead of WAN")
    p.add_argument("--packet-size", type=int, default=576)
    p.add_argument("--bad-period", type=float, default=1.0)
    p.add_argument("--transfer-kb", type=int, default=100)
    _add_validate(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("trace", help="render a Figs 3-5 style trace")
    _add_common(p)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--t-max", type=float, default=60.0)
    _add_validate(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sweep", help="packet-size (WAN) or bad-period (LAN) sweep")
    _add_common(p)
    p.add_argument("--lan", action="store_true")
    p.add_argument("--bad-period", type=float, default=1.0)
    p.add_argument("--transfer-kb", type=int, default=100)
    p.add_argument("--replications", type=int, default=5)
    _add_engine(p)
    _add_validate(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="regenerate a paper figure's series")
    p.add_argument("number", type=int, help="figure number (3-5, 7-11)")
    p.add_argument("--replications", type=int, default=5)
    _add_engine(p)
    _add_validate(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("csdp", help="multi-connection scheduling study")
    p.add_argument("--connections", type=int, default=4)
    p.add_argument("--transfer-kb", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_csdp)

    p = sub.add_parser("handoff", help="two-cell handoff study")
    p.add_argument("--interval", type=float, default=8.0)
    p.add_argument("--disconnect", type=float, default=0.3)
    p.add_argument("--transfer-kb", type=int, default=60)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=_cmd_handoff)

    p = sub.add_parser("congestion", help="congestion / ECN / EBSN interaction")
    p.add_argument("--load", type=float, default=0.9)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=_cmd_congestion)

    p = sub.add_parser("validate", help="run every claim check (\u2713/\u2717 report)")
    p.add_argument("--scale", type=float, default=0.3, help="transfer scale factor")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "replay", help="re-run a recorded invariant-violation bundle"
    )
    p.add_argument("bundle", help="path to a violation-*.json replay bundle")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "profile",
        help="cProfile one run; print hot functions and perf counters",
    )
    _add_common(p)
    p.add_argument("--lan", action="store_true", help="LAN config instead of WAN")
    p.add_argument("--packet-size", type=int, default=576)
    p.add_argument("--bad-period", type=float, default=1.0)
    p.add_argument("--transfer-kb", type=int, default=100)
    p.add_argument("--top", type=int, default=15, help="functions to print")
    p.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    p.add_argument(
        "--events-per-sec",
        action="store_true",
        help="skip the profiler; print only the throughput summary",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("report", help="assemble benchmark outputs into REPORT.md")
    p.add_argument("--out-dir", default="benchmarks/out")
    p.add_argument("--output", default="REPORT.md")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.validate.engine import InvariantViolationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolationError as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation.describe()}", file=sys.stderr)
        if err.bundle_path:
            print(
                f"replay bundle written: {err.bundle_path}\n"
                f"reproduce with: python -m repro replay {err.bundle_path}",
                file=sys.stderr,
            )
        return 3
    except CampaignInterrupted as err:
        print(str(err), file=sys.stderr)
        if err.journal_path:
            print(
                f"journal flushed: {err.journal_path} "
                f"({err.completed}/{err.total} units checkpointed)",
                file=sys.stderr,
            )
        return 130
    except CampaignError as err:
        print(f"campaign aborted: {err}", file=sys.stderr)
        if err.failure.bundle_path:
            print(
                f"reproduce with: python -m repro replay "
                f"{err.failure.bundle_path}",
                file=sys.stderr,
            )
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
