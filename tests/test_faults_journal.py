"""Tests for the fault taxonomy, retry policy, and checkpoint journal."""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments import topology
from repro.experiments.cache import CACHE_FORMAT, STALE_TMP_AGE, ResultCache
from repro.experiments.config import wan_scenario
from repro.experiments.faults import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_TIMEOUT,
    CampaignInterrupted,
    CompletenessReport,
    RetryPolicy,
    UnitFailure,
    UnitQuarantined,
    UnitTimeout,
    WorkerCrashed,
    merge_reports,
)
from repro.experiments.journal import CampaignJournal
from repro.experiments.parallel import ParallelRunner, _execute_unit
from repro.experiments.runner import run_replicated

TINY = 5 * 1024


def _failure(kind: str, **overrides) -> UnitFailure:
    fields = dict(
        index=3,
        key="abc123",
        seed=7,
        scheme="ebsn",
        kind=kind,
        message="boom",
        attempts=3,
    )
    fields.update(overrides)
    return UnitFailure(**fields)


class TestRetryPolicy:
    def test_deterministic_given_key_and_attempt(self):
        policy = RetryPolicy()
        assert policy.delay(0, "k") == policy.delay(0, "k")
        assert policy.delay(1, "k") == policy.delay(1, "k")

    def test_jitter_decorrelates_keys(self):
        policy = RetryPolicy()
        assert policy.delay(0, "unit-a") != policy.delay(0, "unit-b")

    def test_bounded_by_cap(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=2.0)
        for attempt in range(10):
            assert 0.0 <= policy.delay(attempt, "k") <= 2.0

    def test_exponential_ceiling_grows(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=1e9)
        # The ceiling doubles per attempt; sampled delays can't prove
        # it directly, but a zero base must always give zero delay.
        assert RetryPolicy(backoff_base=0.0).delay(5, "k") == 0.0
        assert policy.delay(0, "k") <= 1.0

    def test_max_retries_default(self):
        assert RetryPolicy().max_retries == 2


class TestTaxonomy:
    def test_timeout_maps_to_unit_timeout(self):
        exc = _failure(FAULT_TIMEOUT).to_exception()
        assert isinstance(exc, UnitTimeout)

    def test_crash_maps_to_worker_crashed(self):
        exc = _failure(FAULT_CRASH).to_exception()
        assert isinstance(exc, WorkerCrashed)

    def test_error_maps_to_quarantined(self):
        exc = _failure(FAULT_ERROR).to_exception()
        assert isinstance(exc, UnitQuarantined)

    def test_exceptions_carry_the_failure(self):
        failure = _failure(FAULT_TIMEOUT, bundle_path="/tmp/b.json")
        exc = failure.to_exception()
        assert exc.failure == failure
        assert "seed 7" in str(exc)
        assert "/tmp/b.json" in str(exc)

    def test_taxonomy_exceptions_pickle(self):
        for kind in (FAULT_TIMEOUT, FAULT_CRASH, FAULT_ERROR):
            exc = _failure(kind).to_exception()
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.failure == exc.failure

    def test_interrupted_pickles_and_names_signal(self):
        exc = CampaignInterrupted(2, 3, 10, "camp.journal")
        assert "SIGINT" in str(exc)
        assert "--resume camp.journal" in str(exc)
        clone = pickle.loads(pickle.dumps(exc))
        assert (clone.signum, clone.completed, clone.total) == (2, 3, 10)


class TestCompletenessReport:
    def test_complete_report(self):
        report = CompletenessReport(total=4, completed=4, from_cache=1)
        assert report.complete
        assert report.simulated == 3
        assert "4/4" in report.describe()
        assert "PARTIAL" not in report.describe()

    def test_partial_report_enumerates_quarantine(self):
        report = CompletenessReport(
            total=4, completed=3, quarantined=(_failure(FAULT_TIMEOUT),)
        )
        assert not report.complete
        text = report.describe()
        assert "3/4" in text
        assert "PARTIAL" in text
        assert "seed 7" in text

    def test_write_back_timings_in_describe(self):
        report = CompletenessReport(
            total=1,
            completed=1,
            cache_write_seconds=0.25,
            journal_write_seconds=0.5,
        )
        text = report.describe()
        assert "write-back: cache 250.0 ms, journal 500.0 ms" in text

    def test_write_back_line_absent_when_unmeasured(self):
        assert "write-back" not in CompletenessReport(total=1, completed=1).describe()

    def test_merge_reports_sums_write_back_timings(self):
        merged = merge_reports(
            [
                CompletenessReport(
                    total=1,
                    completed=1,
                    cache_write_seconds=0.1,
                    journal_write_seconds=0.2,
                ),
                CompletenessReport(total=1, completed=1, cache_write_seconds=0.3),
            ]
        )
        assert merged.cache_write_seconds == pytest.approx(0.4)
        assert merged.journal_write_seconds == pytest.approx(0.2)

    def test_merge_reports_sums_everything(self):
        merged = merge_reports(
            [
                CompletenessReport(total=2, completed=2, from_cache=1),
                CompletenessReport(
                    total=3,
                    completed=2,
                    from_journal=1,
                    quarantined=(_failure(FAULT_CRASH),),
                ),
            ]
        )
        assert merged.total == 5
        assert merged.completed == 4
        assert merged.from_cache == 1
        assert merged.from_journal == 1
        assert len(merged.quarantined) == 1


class TestCampaignJournal:
    def _summary(self, seed: int = 1):
        return _execute_unit(
            wan_scenario(transfer_bytes=TINY, seed=seed, record_trace=False)
        )

    def _plant(self, journal, key: str, entry) -> None:
        """Write raw bytes (or a pickled dict) as the entry for ``key``."""
        path = journal._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(entry if isinstance(entry, bytes) else pickle.dumps(entry))

    def test_corrupt_entry_is_a_miss_and_its_unit_reruns(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY, record_trace=False)
        with CampaignJournal(path) as journal:
            assert path.is_dir() and len(journal) == 0
            run_replicated(
                config, replications=2, runner=ParallelRunner(journal=journal)
            )
            corrupted = journal.key(replace(config, seed=2))
            self._plant(journal, corrupted, b"\x80\x04\x8c\x02\xff\xfe\x94.")
        calls = []
        original = topology.run_scenario

        def counting(cfg, **kwargs):
            calls.append(cfg.seed)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", counting)
        with CampaignJournal(path) as journal:
            assert len(journal) == 1
            assert journal.stale_entries == 0
            result = run_replicated(
                config, replications=2, runner=ParallelRunner(journal=journal)
            )
        assert calls == [2]
        assert result.report.from_journal == 1

    def test_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY, record_trace=False)
        summary = self._summary()
        with CampaignJournal(path) as journal:
            key = journal.key(config)
            journal.record(key, summary)
        with CampaignJournal(path) as resumed:
            assert len(resumed) == 1
            assert resumed.get(resumed.key(config)).metrics == summary.metrics

    def test_key_matches_result_cache_key(self, tmp_path):
        config = wan_scenario(transfer_bytes=TINY, record_trace=False)
        journal = CampaignJournal(tmp_path / "camp.journal")
        cache = ResultCache(tmp_path / "cache")
        assert journal.key(config) == cache.key(config)
        journal.close()

    def test_torn_tmp_file_is_swept_and_not_counted(self, tmp_path):
        path = tmp_path / "camp.journal"
        with CampaignJournal(path) as journal:
            journal.record("k1", self._summary())
        # A writer that died mid-record leaves its tmp file behind.
        orphan = journal._path("k2").parent / "deadwriter.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"half a pickle")
        stamp = time.time() - 2 * STALE_TMP_AGE
        os.utime(orphan, (stamp, stamp))
        resumed = CampaignJournal(path)
        assert not orphan.exists()
        assert len(resumed) == 1 and resumed.get("k1") is not None
        assert resumed.get("k2") is None
        assert resumed.stale_entries == 0
        resumed.close()

    def test_failure_records_are_not_completed_units(self, tmp_path):
        path = tmp_path / "camp.journal"
        with CampaignJournal(path) as journal:
            journal.record_failure(_failure(FAULT_TIMEOUT, key="k-failed"))
        resumed = CampaignJournal(path)
        assert resumed.get("k-failed") is None
        assert len(resumed) == 0
        resumed.close()

    def test_stale_code_token_ignored_with_warning(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "camp.journal"
        with CampaignJournal(path) as journal:
            journal.record("k1", self._summary())
        monkeypatch.setattr(
            cache_mod, "code_version_token", lambda: "different-code"
        )
        with caplog.at_level("WARNING", logger="repro.experiments.journal"):
            resumed = CampaignJournal(path)
        assert resumed.stale_entries == 1
        assert any("different code version" in r.message for r in caplog.records)
        resumed.close()

    def test_units_recorded_after_a_code_change_are_not_stale(
        self, tmp_path, monkeypatch, caplog
    ):
        path = tmp_path / "camp.journal"
        monkeypatch.setattr(cache_mod, "code_version_token", lambda: "code-a")
        with CampaignJournal(path) as journal:
            journal.record("k-old", self._summary())
        monkeypatch.setattr(cache_mod, "code_version_token", lambda: "code-b")
        with CampaignJournal(path) as journal:
            journal.record("k-new", self._summary(seed=2))
        with caplog.at_level("WARNING", logger="repro.experiments.journal"):
            resumed = CampaignJournal(path)
        assert resumed.stale_entries == 1
        assert resumed.get("k-old") is None
        assert resumed.get("k-new") is not None
        warnings = [r.getMessage() for r in caplog.records]
        assert any("its 1 completed unit(s)" in m for m in warnings)
        resumed.close()

    def _foreign_format_entry(self, journal) -> dict:
        return {
            "format": CACHE_FORMAT + 1,
            "code": journal._code_token,
            "summary": self._summary(),
        }

    def test_units_appended_after_a_foreign_format_are_loaded(self, tmp_path):
        path = tmp_path / "camp.journal"
        with CampaignJournal(path) as journal:
            self._plant(journal, "k", self._foreign_format_entry(journal))
            journal.record("k-new", self._summary())
        with CampaignJournal(path) as resumed:
            assert resumed.get("k-new") is not None
            assert resumed.get("k") is None
            assert len(resumed) == 1
            assert resumed.stale_entries == 1

    def test_foreign_format_entry_is_stale_with_warning(self, tmp_path, caplog):
        path = tmp_path / "camp.journal"
        with CampaignJournal(path) as journal:
            self._plant(journal, "k", self._foreign_format_entry(journal))
        with caplog.at_level("WARNING", logger="repro.experiments.journal"):
            journal = CampaignJournal(path)
        assert len(journal) == 0
        assert journal.stale_entries == 1
        warnings = [r.getMessage() for r in caplog.records]
        assert any("different code version or format" in m for m in warnings)
        journal.close()


class TestWriteBackTimings:
    """The durability cost of a campaign is measured, not hidden."""

    def test_campaign_records_cache_and_journal_write_cost(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = wan_scenario(transfer_bytes=TINY, record_trace=False)
        with CampaignJournal(tmp_path / "camp.journal") as journal:
            result = run_replicated(
                config,
                replications=2,
                runner=ParallelRunner(cache=cache, journal=journal),
            )
        report = result.report
        assert report.cache_write_seconds > 0.0
        assert report.journal_write_seconds > 0.0
        assert "write-back" in report.describe()

    def test_cacheless_campaign_reports_zero_cost(self):
        config = wan_scenario(transfer_bytes=TINY, record_trace=False)
        report = run_replicated(config, replications=1).report
        assert report.cache_write_seconds == 0.0
        assert report.journal_write_seconds == 0.0
