"""The traced run: per-layer metrics from one pass of a workload.

The pass is first run untraced (for ``trace.overhead_ratio``,
``engine.events_per_s`` and ``experiments.warm_unit_ms``), then again with every layer class wrapped by
:class:`tracer.Tracer`.  Self times and counts are means per unit;
``*_ms`` cache and journal figures are means per call.  A metric of a
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import workloads
from tracer import Tracer

CHANNEL_CLASSES = ("TwoStateChannel", "BernoulliLossChannel", "ScriptedChannel")

#: Untraced warm re-reads behind ``experiments.warm_unit_ms`` (median).
WARM_PASSES = 5


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def phase(tracer: Tracer, before, after, qualname: str) -> tuple[int, float]:
    """Calls and inclusive ms of ``qualname`` between two snapshots."""

    def delta(column: int, fid: int) -> int:
        was, now = before[column], after[column]
        return (now[fid] if fid < len(now) else 0) - (was[fid] if fid < len(was) else 0)

    fids = [fid for fid, (_, name, _) in enumerate(tracer.functions) if name == qualname]
    return sum(delta(0, fid) for fid in fids), sum(delta(2, fid) for fid in fids) / 1e6


def per_call_ms(tracer, before, after, qualname) -> float:
    calls, ms = phase(tracer, before, after, qualname)
    return ratio(ms, calls)


def trace_serial(units, tracer: Tracer, work: Path) -> dict:
    from repro.experiments import ResultCache

    untraced, expected = [], []
    warm_cache = ResultCache(work / "warm-cache")
    for unit in units:
        t0 = time.perf_counter()
        result = workloads.call(unit)
        untraced.append(time.perf_counter() - t0)
        expected.append(workloads.outputs(unit.kind, result))
        warm_cache.put(warm_cache.key(unit.config), workloads.summary(unit.kind, result))
    warm_s = []
    for _ in range(WARM_PASSES):
        t0 = time.perf_counter()
        for unit in units:
            warm_cache.get(warm_cache.key(unit.config))
        warm_s.append(time.perf_counter() - t0)
    tracer.install()
    problems = []
    try:
        traced, summaries = [], []
        for unit, want in zip(units, expected):
            t0 = time.perf_counter()
            result = workloads.call(unit)
            traced.append(time.perf_counter() - t0)
            if not workloads.completed(unit.kind, result):
                problems.append(f"{unit.label}: did not complete")
            elif workloads.outputs(unit.kind, result) != want:
                problems.append(f"{unit.label}: traced output differs from untraced")
            summaries.append(workloads.summary(unit.kind, result))
            del result
        put_start = tracer.snapshot()
        cache = ResultCache(work / "trace-cache")
        for unit, summary in zip(units, summaries):
            cache.put(cache.key(unit.config), summary)
        get_start = tracer.snapshot()
        served = [cache.get(cache.key(unit.config)) for unit in units]
        get_end = tracer.snapshot()
    finally:
        tracer.uninstall()
    for unit, summary, got in zip(units, summaries, served):
        if got is None or workloads.outputs(unit.kind, got) != workloads.outputs(
            unit.kind, summary
        ):
            problems.append(f"{unit.label}: warm cache served a different result")
    return {
        "units": len(units),
        "problems": problems,
        "untraced_s": sum(untraced),
        "traced_s": sum(traced),
        "unvalidated_s": sum(untraced),
        "validated_s": None,
        "put": (put_start, get_start),
        "get": (get_start, get_end),
        "cache_hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
        "warm_unit_ms": statistics.median(warm_s) / len(units) * 1000.0,
        "scheduler_self_ms": 0.0,
        "worker_busy_ratio": 0.0,
    }


def trace_campaign(units, tracer: Tracer, work: Path) -> dict:
    from repro.experiments import CampaignJournal, ParallelRunner, ResultCache

    configs = [unit.config for unit in units]
    base_cold, _, untraced_cold_s, warm_s = workloads.campaign_pass(
        configs, work / "untraced", warm_passes=WARM_PASSES
    )
    unvalidated = validated = 0.0
    for unit in units:
        t0 = time.perf_counter()
        workloads.call(unit)
        t1 = time.perf_counter()
        workloads.call(unit, validate=True)
        unvalidated += t1 - t0
        validated += time.perf_counter() - t1

    tracer.spool_dir = work / "spool"
    tracer.spool_dir.mkdir()
    tracer.install()
    try:
        cold_start = tracer.snapshot()
        cache = ResultCache(work / "traced" / "cache")
        journal = CampaignJournal(work / "traced" / "campaign.journal")
        runner = ParallelRunner(
            workers=workloads.WORKERS,
            validate=True,
            cache=cache,
            journal=journal,
            fail_fast=False,
        )
        t0 = time.perf_counter()
        cold = runner.run_campaign(configs)
        cold_s = time.perf_counter() - t0
        warm_start = tracer.snapshot()
        hits, misses = cache.hits, cache.misses
        warm = runner.run_campaign(configs)
        warm_end = tracer.snapshot()
        journal.close()
    finally:
        tracer.uninstall()
    # Parent-side only: the workers' spans are merged below.
    was, now = cold_start[1], warm_start[1]
    scheduler_ns = sum(
        now[fid] - (was[fid] if fid < len(was) else 0)
        for fid in range(len(now))
        if tracer.functions[fid][2] == "repro.experiments.parallel"
    )
    pids = tracer.merge_spool()
    worker_ns = sum(c["unit_ns"] for c in tracer.unit_counters if c["pid"] in pids)
    problems = workloads.campaign_problems(cold, warm, len(units))
    for unit, got, want in zip(units, cold.summaries, base_cold.summaries):
        if got != want:
            problems.append(f"{unit.label}: traced campaign differs from untraced")
    return {
        "units": len(units),
        "problems": problems,
        "untraced_s": untraced_cold_s,
        "traced_s": cold_s,
        "unvalidated_s": unvalidated,
        "validated_s": validated,
        "put": (cold_start, warm_start),
        "get": (warm_start, warm_end),
        "cache_hit_ratio": ratio(cache.hits - hits, cache.hits - hits + cache.misses - misses),
        "warm_unit_ms": statistics.median(warm_s) / len(units) * 1000.0,
        "scheduler_self_ms": scheduler_ns / 1e6,
        "worker_busy_ratio": worker_ns / 1e9 / (workloads.WORKERS * cold_s),
        "workers": pids,
    }


def coverage_checks(tracer: Tracer, total: dict) -> list[tuple[str, int, int]]:
    """(what, wrapper count, program counter) pairs that must be equal."""
    calls = tracer.calls_of
    return [
        (
            "Simulator.schedule/schedule_at calls vs Simulator.heap_pushes",
            calls("Simulator.schedule") + calls("Simulator.schedule_at"),
            total["heap_pushes"],
        ),
        (
            "channel corrupts() calls vs frames_tested",
            sum(calls(f"{name}.corrupts") for name in CHANNEL_CLASSES),
            total["frames_tested"],
        ),
        (
            "WirelessPort._on_ack_timeout calls vs ArqStats.ack_timeouts",
            calls("WirelessPort._on_ack_timeout"),
            total["ack_timeouts"],
        ),
        (
            "fragments returned by Fragmenter.fragment vs fragments_produced",
            tracer.result_len_of("Fragmenter.fragment"),
            total["fragments_produced"],
        ),
    ]


def per_layer(tracer: Tracer, stats: dict) -> tuple[dict, list]:
    n = stats["units"]
    total: dict = {}
    for counters in tracer.unit_counters:
        for key, value in counters.items():
            if key != "pid":
                total[key] = total.get(key, 0) + value
    layer = tracer.layer_self_ms()
    calls = tracer.calls_of
    events, pushes = total["events"], total["heap_pushes"]
    first, retx = total["arq_first"], total["arq_retransmissions"]
    hits, misses = total["fast_path_hits"], total["fast_path_misses"]
    checks = coverage_checks(tracer, total)
    passed = sum(1 for _, seen, counted in checks if seen == counted)
    put, get = stats["put"], stats["get"]
    values = {
        "engine.self_ms": layer.get("engine", 0.0) / n,
        "engine.events": events / n,
        "engine.heap_pushes": pushes / n,
        "engine.pushes_per_event": ratio(pushes, events),
        "engine.cancelled_push_ratio": ratio(pushes - events, pushes),
        "engine.timer_restarts": calls("Timer.restart") / n,
        "engine.events_per_s": ratio(events, stats["unvalidated_s"]),
        "channel.self_ms": layer.get("channel", 0.0) / n,
        "channel.corrupts_calls": checks[1][1] / n,
        "channel.fast_path_ratio": ratio(hits, hits + misses),
        "net.self_ms": layer.get("net", 0.0) / n,
        "net.fragments_per_datagram": ratio(
            total["fragments_produced"], calls("Fragmenter.fragment")
        ),
        "net.reassembly_adds": calls("Reassembler.add") / n,
        "net.wireless_sends": total["wireless_sends"] / n,
        "net.wired_sends": total["wired_sends"] / n,
        "net.queue_drops": total["queue_drops"] / n,
        "linklayer.self_ms": layer.get("linklayer", 0.0) / n,
        "linklayer.frames": first / n,
        "linklayer.arq_attempts_per_frame": ratio(first + retx, first),
        "linklayer.ack_timeouts": total["ack_timeouts"] / n,
        "tcp.self_ms": layer.get("tcp", 0.0) / n,
        "tcp.segments_sent": total["segments_sent"] / n,
        "tcp.retransmit_ratio": ratio(total["tcp_retransmissions"], total["segments_sent"]),
        "tcp.timeouts": total["tcp_timeouts"] / n,
        "tcp.acks_received": total["acks_received"] / n,
        "core.self_ms": layer.get("core", 0.0) / n,
        "core.ebsn_sent": total["ebsn_sent"] / n,
        "metrics.self_ms": layer.get("metrics", 0.0) / n,
        "experiments.self_ms": layer.get("experiments", 0.0) / n,
        "experiments.build_ms": total["build_ns"] / 1e6 / n,
        "experiments.congestion_self_ms": tracer.self_ms_where(
            lambda _layer, _name, module: module == "repro.experiments.congestion"
        )
        / n,
        "experiments.cache_put_ms": per_call_ms(tracer, *put, "ResultCache.put"),
        "experiments.journal_record_ms": per_call_ms(tracer, *put, "CampaignJournal.record"),
        "experiments.scheduler_self_ms": stats["scheduler_self_ms"] / n,
        "experiments.worker_busy_ratio": stats["worker_busy_ratio"],
        "experiments.cache_get_ms": per_call_ms(tracer, *get, "ResultCache.get"),
        "experiments.key_ms": per_call_ms(tracer, *get, "ResultCache.key"),
        "experiments.cache_hit_ratio": stats["cache_hit_ratio"],
        "experiments.warm_unit_ms": stats["warm_unit_ms"],
        "handoff.self_ms": layer.get("handoff", 0.0) / n,
        "csdp.self_ms": layer.get("csdp", 0.0) / n,
        "validate.self_ms": layer.get("validate", 0.0) / n,
        "validate.overhead_ratio": ratio(stats["validated_s"] or 0.0, stats["unvalidated_s"]),
        "trace.overhead_ratio": ratio(stats["traced_s"], stats["untraced_s"]),
        "trace.coverage": passed / len(checks),
    }
    return values, checks


def run(workload: str, seed: int, work: Path, out_dir: Path, names: list) -> dict:
    """Traced run of pass 0; prints the split and returns the result line.

    ``names`` are the ``(name, unit)`` pairs of the per-layer metrics.
    """
    units = workloads.units(workload, seed, 0)
    tracer = Tracer(workloads.counter_classes(), workloads.read_counters)
    if workload == "campaign":
        stats = trace_campaign(units, tracer, work)
    else:
        stats = trace_serial(units, tracer, work)
    values, checks = per_layer(tracer, stats)

    print(f"{workload} seed={seed}: traced {stats['units']} units (pass 0)")
    if workload == "campaign":
        print(
            f"campaign traced with {workloads.WORKERS} workers; "
            f"spans of worker pids {stats['workers']} merged into the parent's"
        )
    print(
        f"wrapper cost charged to nobody: {tracer.overhead_ns} + {tracer.inside_ns} ns "
        f"per call; untraced {stats['untraced_s'] / stats['units'] * 1000:.3f} ms/unit"
    )
    layer = tracer.layer_self_ms()
    idle = layer.pop("idle")
    spent = sum(layer.values())
    for name, ms in sorted(layer.items(), key=lambda item: -item[1]):
        if ms > 0:
            print(f"  self {name:12s} {ms / stats['units']:9.3f} ms/unit {ms / spent:7.1%}")
    if idle:
        print(f"  supervisor blocked on workers: {idle / stats['units']:.3f} ms/unit")
    for what, seen, counted in checks:
        print(f"  coverage {'ok  ' if seen == counted else 'GAP '} {what}: {seen} vs {counted}")
    for problem in stats["problems"]:
        print(f"  FAIL {problem}")
    metrics = {}
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")

    path = out_dir / f"spans-{workload}.pkl"
    tracer.write(path, {"workload": workload, "seed": seed, "units": [u.label for u in units]})
    print(f"spans: {len(tracer.starts)} kept, {tracer.dropped_spans} over the cap, in {path}")
    failed = len(stats["problems"])
    return {
        "correct": failed == 0 and values["trace.coverage"] == 1.0,
        "attempted": stats["units"],
        "failed": min(failed, stats["units"]),
        "metrics": metrics,
    }
