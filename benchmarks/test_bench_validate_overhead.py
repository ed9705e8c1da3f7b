"""Like-for-like gate on the cost of validation.

A validated run (:func:`repro.validate.engine.run_validated`: the six
invariant checkers plus the replay bundle's event-log tail) must cost
at most ``MAX_RATIO`` times a plain run of the same config.  The two
are timed in interleaved pairs in one process, so host speed and
background load cancel out of the ratio; the order within a pair
alternates so that neither side always runs on a warmer cache.

This is a plain-timing test (no benchmark fixture, so not
``--benchmark-only``)::

    pytest benchmarks/test_bench_validate_overhead.py -q -s

It writes the measured ratios into ``benchmarks/out/BENCH_core.json``
under ``validate_overhead``.
"""

from __future__ import annotations

import gc
import statistics
import time

from conftest import update_bench_core
from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.topology import Scheme, run_scenario

#: Median validated/plain ratio allowed per scenario.
MAX_RATIO = 1.4

#: Interleaved plain/validated pairs per scenario.
PAIRS = 7

#: Scenario factory and runs per timed sample.  A sample is the fastest
#: of its runs (best-of-N filters scheduler noise on a shared host).
#: The WAN config is the golden event log's (tests/data); the LAN one
#: is a default EBSN transfer cut to 128 KB.
OVERHEAD_SCENARIOS = {
    "wan-ebsn-golden": (
        lambda: wan_scenario(
            scheme=Scheme.EBSN,
            transfer_bytes=6 * 1024,
            bad_period_mean=2.0,
            seed=7,
            record_trace=False,
        ),
        15,
    ),
    "lan-ebsn": (
        lambda: lan_scenario(
            scheme=Scheme.EBSN, transfer_bytes=128 * 1024, record_trace=False
        ),
        5,
    ),
}


def _sample(config, validate: bool, runs: int) -> float:
    """Fastest wall time of ``runs`` runs of ``config``."""
    # Start each sample from a collected heap, so neither side pays for
    # the other's garbage.
    gc.collect()
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        result = run_scenario(config, validate=validate, bundle_dir=False)
        best = min(best, time.perf_counter() - start)
        assert result.completed
    return best


def _ratios(config, runs: int) -> list:
    """validated/plain wall-time ratio of each of ``PAIRS`` pairs."""
    _sample(config, False, runs)  # warm-up: imports, code objects
    _sample(config, True, runs)
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            validated = _sample(config, True, runs)
            plain = _sample(config, False, runs)
        else:
            plain = _sample(config, False, runs)
            validated = _sample(config, True, runs)
        ratios.append(validated / plain)
    return ratios


def test_validation_overhead(out_dir):
    """Median validated/plain ratio per scenario stays under MAX_RATIO."""
    measured = {}
    for name, (factory, runs) in OVERHEAD_SCENARIOS.items():
        ratios = _ratios(factory(), runs)
        measured[name] = {
            "median_ratio": round(statistics.median(ratios), 3),
            "ratios": [round(r, 3) for r in ratios],
        }
    update_bench_core(
        out_dir, {"validate_overhead": {"max_ratio": MAX_RATIO, **measured}}
    )
    print(f"\nvalidated/plain: {measured}")
    for name, row in measured.items():
        assert row["median_ratio"] <= MAX_RATIO, (
            f"{name}: a validated run costs {row['median_ratio']}x a plain "
            f"one (pairs: {row['ratios']}), above the {MAX_RATIO}x bound"
        )
