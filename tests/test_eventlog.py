"""Tests for the ns-style event log and analyzer."""

from __future__ import annotations

import io

import pytest

from repro.experiments.config import wan_scenario
from repro.experiments.topology import Scenario, Scheme
from repro.metrics.eventlog import (
    Event,
    EventLog,
    EventLogAnalyzer,
    EventType,
    TraceParseError,
    attach_to_scenario,
)
from repro.validate.engine import Validator


def instrumented_run(scheme=Scheme.BASIC, bad=1.0, seed=1, transfer=10 * 1024):
    scenario = Scenario(
        wan_scenario(
            scheme=scheme, bad_period_mean=bad, seed=seed, transfer_bytes=transfer
        )
    )
    log = attach_to_scenario(scenario)
    result = scenario.run()
    return log, result


class TestSerialization:
    def test_round_trip(self):
        log = EventLog()
        log.record(1.5, EventType.WIRED_SEND, "FH->BS", "data", 576, 42)
        log.record(2.0, EventType.CORRUPT, "channel", "frame", 128, 7)
        buffer = io.StringIO()
        assert log.write(buffer) == 2
        buffer.seek(0)
        parsed = EventLog.read(buffer)
        assert parsed.events == log.events

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            Event.from_line("not enough fields")

    def test_wrong_field_count_names_the_problem(self):
        with pytest.raises(TraceParseError, match="expected 6.*got 3"):
            Event.from_line("1.0 air_send BS->MH")

    def test_bad_time_field(self):
        with pytest.raises(TraceParseError, match="bad time field 'soon'"):
            Event.from_line("soon air_send BS->MH data 128 9")

    def test_unknown_event_type_lists_known_types(self):
        with pytest.raises(TraceParseError, match="unknown event type 'warp'"):
            Event.from_line("1.0 warp BS->MH data 128 9")

    def test_bad_size_or_uid_field(self):
        with pytest.raises(TraceParseError, match="bad size/uid field"):
            Event.from_line("1.0 air_send BS->MH data many 9")
        with pytest.raises(TraceParseError, match="bad size/uid field"):
            Event.from_line("1.0 air_send BS->MH data 128 nine")

    def test_parse_error_is_a_value_error(self):
        # Callers that caught the old bare ValueError keep working.
        assert issubclass(TraceParseError, ValueError)

    def test_read_reports_line_number(self):
        trace = "1.0 air_send BS->MH data 128 9\n\nbogus line here\n"
        with pytest.raises(TraceParseError, match="line 3:"):
            EventLog.read(io.StringIO(trace))

    def test_read_skips_blank_lines(self):
        trace = "\n1.0 air_send BS->MH data 128 9\n\n"
        log = EventLog.read(io.StringIO(trace))
        assert len(log) == 1

    def test_line_format(self):
        event = Event(12.345678, EventType.AIR_SEND, "BS->MH", "data", 128, 9)
        assert event.to_line() == "12.345678 air_send BS->MH data 128 9"


class TestInstrumentation:
    def test_records_all_layers(self):
        log, result = instrumented_run()
        assert result.completed
        counts = EventLogAnalyzer(log).counts()
        assert counts[EventType.WIRED_SEND] > 0
        assert counts[EventType.WIRED_RECV] > 0
        assert counts[EventType.AIR_SEND] > 0
        assert counts[EventType.AIR_RECV] > 0

    def test_air_recv_matches_link_stats(self):
        log, result = instrumented_run()
        counts = EventLogAnalyzer(log).counts()
        delivered = (
            result.downlink.stats.delivered + result.uplink.stats.delivered
        )
        assert counts[EventType.AIR_RECV] == delivered

    def test_corruption_events_match_channel(self):
        log, result = instrumented_run(bad=4.0, seed=2)
        counts = EventLogAnalyzer(log).counts()
        assert counts.get(EventType.CORRUPT, 0) == result.downlink.channel.frames_corrupted

    def test_events_time_ordered(self):
        log, _ = instrumented_run()
        times = [e.time for e in log.events]
        assert times == sorted(times)


class TestBoundedLog:
    """``maxlen`` keeps a run's most recent records and nothing else."""

    @staticmethod
    def logged_run(maxlen):
        """One run observed by a full log and a ``maxlen``-bounded one."""
        scenario = Scenario(
            wan_scenario(scheme=Scheme.EBSN, bad_period_mean=4.0, seed=2,
                         transfer_bytes=10 * 1024)
        )
        full = EventLog(scenario.sim)
        bounded = EventLog(scenario.sim, maxlen=maxlen)
        Validator([]).attach(scenario, full, bounded)
        scenario.run()
        return full, bounded

    def test_keeps_exactly_the_last_n_records(self):
        full, bounded = self.logged_run(maxlen=50)
        assert len(full) > 50
        assert len(bounded) == 50
        assert bounded.events == full.events[-50:]

    def test_writes_the_same_bytes_as_the_full_log(self):
        full, bounded = self.logged_run(maxlen=50)
        written = io.StringIO()
        assert bounded.write(written) == 50
        expected = "".join(line + "\n" for line in list(full.lines())[-50:])
        assert written.getvalue() == expected

    def test_short_run_is_kept_whole(self):
        full, bounded = self.logged_run(maxlen=10**6)
        assert list(bounded.lines()) == list(full.lines())


class TestAnalyzer:
    def test_delivered_series_sums_to_total(self):
        log, result = instrumented_run()
        analyzer = EventLogAnalyzer(log)
        series = analyzer.delivered_series(bin_width=5.0)
        assert sum(v for _, v in series) == analyzer.bytes_by_event(EventType.AIR_RECV)

    def test_delivered_series_filters_by_place(self):
        log, _ = instrumented_run()
        analyzer = EventLogAnalyzer(log)
        down = analyzer.delivered_series(5.0, place="BS->MH")
        up = analyzer.delivered_series(5.0, place="MH->BS")
        assert sum(v for _, v in down) > sum(v for _, v in up)  # data vs ACKs

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            EventLogAnalyzer(EventLog()).delivered_series(0)

    def test_bursty_channel_has_long_loss_runs(self):
        """The two-state channel's fingerprint: multi-frame loss runs."""
        log, _ = instrumented_run(bad=4.0, seed=3, transfer=30 * 1024)
        analyzer = EventLogAnalyzer(log)
        runs = analyzer.loss_runs()
        assert runs, "expected losses under bad=4s"
        assert max(runs) >= 3
        assert analyzer.mean_loss_run() > 1.0

    def test_loss_runs_empty_without_corruption(self):
        log = EventLog()
        log.record(1.0, EventType.AIR_RECV, "BS->MH", "data", 128, 1)
        assert EventLogAnalyzer(log).loss_runs() == []
