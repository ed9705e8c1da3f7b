"""Tests for the parallel experiment engine and the result cache."""

from __future__ import annotations

import ast
import dataclasses
import logging
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import figures, runner
from repro.experiments import parallel as parallel_mod
from repro.experiments import topology
from repro.experiments.cache import ResultCache, config_digest
from repro.experiments.config import lan_scenario, wan_scenario
from repro.experiments.parallel import ParallelRunner, RunSummary, resolve_workers
from repro.experiments.runner import ReplicatedResult, run_replicated, sweep

TINY = 5 * 1024
LAN_TINY = 48 * 1024

AGGREGATE_FIELDS = [
    "replications",
    "throughput_bps_mean",
    "throughput_bps_std",
    "goodput_mean",
    "retransmitted_kbytes_mean",
    "timeouts_mean",
    "duration_mean",
    "tput_th_bps",
]


def assert_identical_aggregates(a: ReplicatedResult, b: ReplicatedResult) -> None:
    """Every aggregate field must match exactly — not approximately."""
    for field in AGGREGATE_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


class TestParallelMatchesSerial:
    def test_wan_bit_identical(self):
        config = wan_scenario(transfer_bytes=TINY)
        serial = run_replicated(
            config, replications=4, base_seed=3, runner=ParallelRunner(workers=1)
        )
        pooled = run_replicated(
            config, replications=4, base_seed=3, runner=ParallelRunner(workers=4)
        )
        assert_identical_aggregates(serial, pooled)
        assert [r.config.seed for r in serial.results] == [
            r.config.seed for r in pooled.results
        ]
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in pooled.results
        ]

    def test_lan_bit_identical(self):
        config = lan_scenario(transfer_bytes=LAN_TINY)
        serial = run_replicated(
            config, replications=4, base_seed=7, runner=ParallelRunner(workers=1)
        )
        pooled = run_replicated(
            config, replications=4, base_seed=7, runner=ParallelRunner(workers=4)
        )
        assert_identical_aggregates(serial, pooled)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in pooled.results
        ]

    def test_sweep_parallel_matches_serial(self):
        make = lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY)
        serial = sweep(
            [256, 576], make, replications=2, runner=ParallelRunner(workers=1)
        )
        pooled = sweep(
            [256, 576], make, replications=2, runner=ParallelRunner(workers=3)
        )
        assert list(serial) == list(pooled)
        for size in serial:
            assert_identical_aggregates(serial[size], pooled[size])

    def test_results_are_summaries(self):
        result = run_replicated(
            wan_scenario(transfer_bytes=TINY),
            replications=2,
            runner=ParallelRunner(workers=2),
        )
        assert all(isinstance(r, RunSummary) for r in result.results)
        assert all(r.trace is None for r in result.results)

    def test_incomplete_run_raises_from_pool(self):
        config = dataclasses.replace(
            wan_scenario(transfer_bytes=TINY), max_sim_time=0.01
        )
        with pytest.raises(RuntimeError, match="did not complete"):
            run_replicated(config, replications=2, runner=ParallelRunner(workers=2))

    def test_workers_one_never_builds_a_pool(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("serial path must not build a process pool")

        monkeypatch.setattr(parallel_mod, "_WorkerHandle", boom)
        result = run_replicated(
            wan_scenario(transfer_bytes=TINY),
            replications=2,
            runner=ParallelRunner(workers=1),
        )
        assert result.replications == 2

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5
        assert resolve_workers(0) >= 1


class TestRunnerHoldsTheKnobs:
    """Execution knobs are set on one ParallelRunner, never forwarded."""

    KNOBS = {
        "workers", "cache", "validate", "timeout", "retries", "fail_fast", "journal"
    }

    @pytest.mark.parametrize(
        "module", [runner, figures, cli], ids=lambda m: m.__name__
    )
    def test_no_function_takes_an_engine_knob(self, module):
        tree = ast.parse(Path(module.__file__).read_text())
        offenders = [
            f"{node.name}({arg.arg})"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for arg in node.args.args + node.args.kwonlyargs
            if arg.arg in self.KNOBS
        ]
        assert offenders == []


class TestForkFallback:
    def test_spawn_only_platform_warns_and_runs_serial(
        self, monkeypatch, caplog
    ):
        """No fork (e.g. Windows/macOS-spawn): degrade to serial, loudly."""
        monkeypatch.setattr(
            parallel_mod.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("spawn-only platform must not build a pool")

        monkeypatch.setattr(parallel_mod, "_WorkerHandle", boom)
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.parallel"
        ):
            result = run_replicated(
                wan_scenario(transfer_bytes=TINY),
                replications=2,
                runner=ParallelRunner(workers=4),
            )
        assert result.replications == 2
        messages = [r.getMessage() for r in caplog.records]
        assert any("fork start method unavailable" in m for m in messages)
        assert any("--workers 4" in m for m in messages)


class TestResultCache:
    def _counting(self, monkeypatch):
        """Patch run_scenario with a call-counting wrapper."""
        calls = []
        original = topology.run_scenario

        def counted(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(topology, "run_scenario", counted)
        return calls

    def test_second_run_simulates_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        config = wan_scenario(transfer_bytes=TINY)
        calls = self._counting(monkeypatch)
        first = run_replicated(
            config, replications=3, runner=ParallelRunner(cache=cache)
        )
        assert len(calls) == 3
        second = run_replicated(
            config, replications=3, runner=ParallelRunner(cache=cache)
        )
        assert len(calls) == 3  # zero fresh run_scenario calls
        assert_identical_aggregates(first, second)
        assert cache.hits == 3 and cache.misses == 3

    def test_cached_sweep_simulates_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        make = lambda size: wan_scenario(packet_size=size, transfer_bytes=TINY)
        calls = self._counting(monkeypatch)
        first = sweep(
            [256, 576], make, replications=2, runner=ParallelRunner(cache=cache)
        )
        assert len(calls) == 4
        second = sweep(
            [256, 576], make, replications=2, runner=ParallelRunner(cache=cache)
        )
        assert len(calls) == 4  # zero fresh run_scenario calls
        for size in first:
            assert_identical_aggregates(first[size], second[size])

    def test_different_seed_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        config = wan_scenario(transfer_bytes=TINY)
        calls = self._counting(monkeypatch)
        run_replicated(
            config, replications=2, base_seed=1, runner=ParallelRunner(cache=cache)
        )
        run_replicated(
            config,
            replications=2,
            base_seed=100,
            runner=ParallelRunner(cache=cache),
        )
        assert len(calls) == 4

    def test_different_config_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        calls = self._counting(monkeypatch)
        run_replicated(
            wan_scenario(transfer_bytes=TINY),
            replications=1,
            runner=ParallelRunner(cache=cache),
        )
        run_replicated(
            wan_scenario(transfer_bytes=TINY, packet_size=1024),
            replications=1,
            runner=ParallelRunner(cache=cache),
        )
        assert len(calls) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = wan_scenario(transfer_bytes=TINY)
        result = run_replicated(
            config, replications=1, runner=ParallelRunner(cache=cache)
        )
        for entry in tmp_path.glob("*/*.pkl"):
            entry.write_bytes(b"garbage")
        again = run_replicated(
            config, replications=1, runner=ParallelRunner(cache=cache)
        )
        assert_identical_aggregates(result, again)

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_replicated(
            wan_scenario(transfer_bytes=TINY),
            replications=2,
            runner=ParallelRunner(cache=cache),
        )
        assert cache.clear() == 2
        assert cache.clear() == 0

    def test_finished_units_cached_before_batch_completes(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-batch must not lose the work already finished.

        The third unit blows up; the first two summaries must already
        be on disk, so a rerun only simulates the remainder.
        """
        cache = ResultCache(tmp_path)
        config = wan_scenario(transfer_bytes=TINY)
        calls = []
        original = topology.run_scenario

        def flaky(cfg):
            calls.append(cfg)
            if len(calls) == 3:
                raise OSError("simulated crash mid-batch")
            return original(cfg)

        monkeypatch.setattr(topology, "run_scenario", flaky)
        with pytest.raises(OSError, match="mid-batch"):
            run_replicated(
                config, replications=4, runner=ParallelRunner(cache=cache)
            )
        assert len(list(tmp_path.glob("*/*.pkl"))) == 2
        # The rerun reuses the two cached seeds and simulates the rest.
        calls.clear()
        result = run_replicated(
            config, replications=4, runner=ParallelRunner(cache=cache)
        )
        assert result.replications == 4
        assert len(calls) == 2


class TestConfigDigest:
    def test_stable_for_equal_configs(self):
        a = wan_scenario(transfer_bytes=TINY, seed=5)
        b = wan_scenario(transfer_bytes=TINY, seed=5)
        assert config_digest(a, "tok") == config_digest(b, "tok")

    def test_sensitive_to_every_knob(self):
        base = wan_scenario(transfer_bytes=TINY)
        variants = [
            wan_scenario(transfer_bytes=TINY, seed=2),
            wan_scenario(transfer_bytes=TINY, packet_size=1024),
            wan_scenario(transfer_bytes=TINY, bad_period_mean=2.0),
            wan_scenario(transfer_bytes=TINY, tcp_variant="reno"),
            lan_scenario(transfer_bytes=TINY),
            {"probe": 1},
        ]
        digests = {config_digest(v, "tok") for v in variants}
        digests.add(config_digest(base, "tok"))
        assert len(digests) == len(variants) + 1

    def test_sensitive_to_code_version(self):
        config = wan_scenario(transfer_bytes=TINY)
        assert config_digest(config, "tok-a") != config_digest(config, "tok-b")


class TestSummaryPickling:
    def test_summary_round_trips(self):
        import pickle

        summary = parallel_mod._execute_unit(
            wan_scenario(transfer_bytes=TINY, record_trace=False)
        )
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.metrics == summary.metrics
        assert clone.config.seed == summary.config.seed
        assert clone.completed and clone.trace is None
