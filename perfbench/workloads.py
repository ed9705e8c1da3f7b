"""The benchmark's workloads: seeded inputs, entry-point calls, outputs.

Every workload is a list of *units*; one unit is one call into a public
entry point of ``repro``.  A workload's inputs are generated pass by
pass from the workload seed; pass ``p`` reuses the inputs of pass
``p % CYCLE[workload]``, so a run of any length at the default seed
only meets units whose output digests are stored in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass

#: The seed whose per-unit output digests are stored.
DEFAULT_SEED = 1

WORKLOADS = ("wan-grid", "lan-bulk", "campaign", "studies")

#: Passes after which a workload's inputs repeat (see module docstring).
CYCLE = {"wan-grid": 12, "lan-bulk": 40, "campaign": 16, "studies": 64}

#: kind -> (module, function) of the entry point a unit calls.  Looked
#: up at call time, so the tracer's wrappers apply.
ENTRY = {
    "scenario": ("repro.experiments.topology", "run_scenario"),
    "handoff": ("repro.handoff.topology", "run_handoff_scenario"),
    "csdp": ("repro.csdp.study", "run_csdp_study"),
    "congestion": ("repro.experiments.congestion", "run_congested_scenario"),
}

WAN_PACKET_SIZES = (128, 256, 384, 512, 640, 768, 1024, 1280, 1536)
WAN_BAD_PERIODS = (1.0, 4.0)
LAN_BAD_PERIODS = (0.4, 1.6)
CAMPAIGN_PACKET_SIZES = (128, 512, 1536)

#: Campaign pool size (the benchmark machine has two CPUs).
WORKERS = 2

#: Handoff period of the handoff units.  The study's default of 8 s is
#: exactly one eighth of TCP's 64 s RTO ceiling, and at some seeds the
#: baseline scheme then never completes: once backed off, every
#: retransmission reaches the old base station during the same outage
#: (e.g. seed 1160375735 times out 794 times in 50,000 simulated s).
#: 7 s is incommensurate with the ceiling, so every transfer ends.
HANDOFF_INTERVAL = 7.0

#: Cross-traffic load of the congestion units: high enough that the
#: bottleneck queue drops, low enough that every transfer completes.
CONGESTION_LOAD = 0.9


@dataclass(frozen=True)
class Unit:
    kind: str
    config: object
    label: str


def units(workload: str, seed: int, pass_index: int) -> list[Unit]:
    """The units of one pass of ``workload``, seeded from ``seed``."""
    from repro.experiments.config import lan_scenario, wan_scenario
    from repro.experiments.topology import Scheme

    rng = random.Random(f"{workload}/{seed}/{pass_index % CYCLE[workload]}")

    def draw() -> int:
        return rng.randrange(1, 2**31)

    schemes = (Scheme.BASIC, Scheme.LOCAL_RECOVERY, Scheme.EBSN)
    out = []
    if workload in ("wan-grid", "campaign"):
        sizes = WAN_PACKET_SIZES if workload == "wan-grid" else CAMPAIGN_PACKET_SIZES
        for scheme in schemes:
            for size in sizes:
                for bad in WAN_BAD_PERIODS:
                    config = wan_scenario(
                        scheme=scheme,
                        packet_size=size,
                        bad_period_mean=bad,
                        seed=draw(),
                        record_trace=False,
                    )
                    out.append(Unit("scenario", config, f"{scheme.value}/{size}B/{bad:g}s"))
    elif workload == "lan-bulk":
        for scheme in schemes:
            for bad in LAN_BAD_PERIODS:
                config = lan_scenario(scheme=scheme, bad_period_mean=bad, seed=draw())
                out.append(Unit("scenario", config, f"{scheme.value}/{bad:g}s"))
    elif workload == "studies":
        from repro.csdp import CsdpStudyConfig
        from repro.experiments.congestion import CongestedScenarioConfig
        from repro.handoff import HandoffConfig, HandoffScheme

        for handoff in HandoffScheme:
            out.append(
                Unit(
                    "handoff",
                    HandoffConfig(
                        scheme=handoff, handoff_interval=HANDOFF_INTERVAL, seed=draw()
                    ),
                    f"handoff/{handoff.value}",
                )
            )
        for scheduler in ("fifo", "rr", "csdp"):
            config = CsdpStudyConfig(scheduler=scheduler, seed=draw())
            out.append(Unit("csdp", config, f"csdp/{scheduler}"))
        for scheme in (Scheme.BASIC, Scheme.EBSN):
            for ecn in (False, True):
                config = CongestedScenarioConfig(
                    scheme=scheme, ecn=ecn, cross_load=CONGESTION_LOAD, seed=draw()
                )
                label = f"congestion/{scheme.value}/ecn={'on' if ecn else 'off'}"
                out.append(Unit("congestion", config, label))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def call(unit: Unit, validate: bool = False):
    """Run one unit through its public entry point."""
    module_name, name = ENTRY[unit.kind]
    entry = getattr(importlib.import_module(module_name), name)
    if unit.kind == "scenario":
        return entry(unit.config, validate=validate)
    return entry(unit.config)


def completed(kind: str, result) -> bool:
    return result.all_completed if kind == "csdp" else result.completed


def summary(kind: str, result):
    """The small, picklable part of a result that a cache would keep."""
    if kind == "scenario":
        from repro.experiments.parallel import summarize

        return summarize(result)
    return result


def outputs(kind: str, result) -> tuple:
    """The user-visible outputs of one unit (full result or summary)."""
    if kind == "csdp":
        return (
            result.all_completed,
            result.aggregate_throughput_bps,
            tuple(result.per_connection_throughput_bps),
            result.total_timeouts,
            max(result.completion_times),
        )
    m = result.metrics
    return (
        result.completed,
        m.throughput_bps,
        m.goodput,
        m.retransmitted_bytes,
        m.timeouts,
        m.duration,
    )


def digest(output: tuple, events: int) -> str:
    """Stable digest of a unit's outputs plus its engine event count."""
    return hashlib.sha256(repr(output + (events,)).encode()).hexdigest()[:16]


def counter_classes() -> dict:
    """Classes whose instances hold the counters :func:`read_counters` reads."""
    from repro.channel import BernoulliLossChannel, ScriptedChannel, TwoStateChannel
    from repro.core.ebsn import EbsnGenerator
    from repro.engine import Simulator
    from repro.linklayer import WirelessPort
    from repro.net import DropTailQueue, Fragmenter, WiredLink, WirelessLink
    from repro.tcp import TahoeSender

    classes = (
        Simulator,
        TwoStateChannel,
        BernoulliLossChannel,
        ScriptedChannel,
        Fragmenter,
        WirelessLink,
        WiredLink,
        DropTailQueue,
        WirelessPort,
        TahoeSender,
        EbsnGenerator,
    )
    return {cls.__name__: cls for cls in classes}


def read_counters(registry: dict) -> dict:
    """Sum the program's own counters over the instances of one unit."""
    channels = (
        registry["TwoStateChannel"]
        + registry["BernoulliLossChannel"]
        + registry["ScriptedChannel"]
    )
    ports = registry["WirelessPort"]
    senders = registry["TahoeSender"]
    return {
        "events": sum(s.events_executed for s in registry["Simulator"]),
        "heap_pushes": sum(s.heap_pushes for s in registry["Simulator"]),
        "frames_tested": sum(c.frames_tested for c in channels),
        "fast_path_hits": sum(getattr(c, "fast_path_hits", 0) for c in channels),
        "fast_path_misses": sum(getattr(c, "fast_path_misses", 0) for c in channels),
        "fragments_produced": sum(f.fragments_produced for f in registry["Fragmenter"]),
        "wireless_sends": sum(link.stats.offered for link in registry["WirelessLink"]),
        "wired_sends": sum(link.stats.offered for link in registry["WiredLink"]),
        "queue_drops": sum(q.stats.dropped for q in registry["DropTailQueue"]),
        "arq_first": sum(p.stats.first_transmissions for p in ports),
        "arq_retransmissions": sum(p.stats.link_retransmissions for p in ports),
        "ack_timeouts": sum(p.stats.ack_timeouts for p in ports),
        "segments_sent": sum(s.stats.segments_sent for s in senders),
        "tcp_retransmissions": sum(s.stats.retransmissions for s in senders),
        "tcp_timeouts": sum(s.stats.timeouts for s in senders),
        "acks_received": sum(s.stats.acks_received for s in senders),
        "ebsn_sent": sum(g.ebsn_sent for g in registry["EbsnGenerator"]),
    }


def campaign_pass(configs, root, warm_passes: int = 1):
    """One cold campaign over a fresh cache and journal, then warm ones.

    Returns ``(cold, warms, cold_seconds, warm_seconds)``, the last two
    lists having one entry per warm pass.
    """
    import time

    from repro.experiments import CampaignJournal, ParallelRunner, ResultCache

    cache = ResultCache(root / "cache")
    journal = CampaignJournal(root / "campaign.journal")
    runner = ParallelRunner(
        workers=WORKERS, validate=True, cache=cache, journal=journal, fail_fast=False
    )
    t0 = time.perf_counter()
    cold = runner.run_campaign(configs)
    cold_seconds = time.perf_counter() - t0
    warms, warm_seconds = [], []
    for _ in range(warm_passes):
        t0 = time.perf_counter()
        warms.append(runner.run_campaign(configs))
        warm_seconds.append(time.perf_counter() - t0)
    journal.close()
    return cold, warms, cold_seconds, warm_seconds


def campaign_problems(cold, warm, n: int) -> list[str]:
    """What is wrong with a cold/warm campaign pair, if anything."""
    problems = []
    report = cold.report
    if report.completed != n or report.from_cache or report.from_journal:
        problems.append(f"cold pass was not {n} fresh simulations: {report.describe()}")
    if warm.report.from_cache != n:
        problems.append(f"warm pass served {warm.report.from_cache}/{n} from the cache")
    for i, (a, b) in enumerate(zip(cold.summaries, warm.summaries)):
        if b != a:
            problems.append(f"unit {i}: warm summary differs from cold")
    return problems
