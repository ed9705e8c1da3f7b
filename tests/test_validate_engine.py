"""Tests for the runtime invariant-validation engine.

Two directions: clean scenarios across every scheme family must report
zero violations (validation is not allowed to cry wolf), and the
fault-injection doubles in :mod:`repro.validate.testing` must each be
caught by the checker that guards their invariant (a validator that
has never failed is untested).
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.engine import Event, Simulator
from repro.linklayer import ArqConfig
from repro.metrics.eventlog import EventLog

from repro.experiments.config import (
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.congestion import CongestedScenario, CongestedScenarioConfig
from repro.experiments.topology import Scenario, Scheme, run_scenario
from repro.tcp import TcpConfig
from repro.validate.engine import (
    InvariantViolationError,
    Validator,
    Violation,
    run_validated,
    set_default_validation,
    validation_default,
)
from repro.validate.checkers import (
    ArqBoundChecker,
    DeliveryChecker,
    TimerSanityChecker,
    default_checkers,
)
from repro.validate.testing import BackwardsAckSender, CwndMutatingEbsnSender
from tests.test_golden_eventlogs import GOLDEN_SCENARIOS

TRANSFER = 12 * 1024


def validated(config):
    """Run one config under the engine without writing bundles."""
    return run_scenario(config, validate=True, bundle_dir=False)


class TestCleanScenarios:
    """The five paper figure scenario families validate clean."""

    @pytest.mark.parametrize("figure", [3, 4, 5])
    def test_trace_figures_validate_clean(self, figure):
        schemes = {3: Scheme.BASIC, 4: Scheme.LOCAL_RECOVERY, 5: Scheme.EBSN}
        result = validated(trace_example_scenario(schemes[figure]))
        assert result.completed

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_wan_schemes_validate_clean(self, scheme):
        result = validated(
            wan_scenario(
                scheme=scheme, transfer_bytes=TRANSFER, record_trace=False
            )
        )
        assert result.completed

    @pytest.mark.parametrize("scheme", [Scheme.BASIC, Scheme.EBSN])
    def test_lan_schemes_validate_clean(self, scheme):
        result = validated(
            lan_scenario(scheme=scheme, transfer_bytes=128 * 1024)
        )
        assert result.completed

    @pytest.mark.parametrize("variant", ["tahoe", "reno", "newreno"])
    def test_tcp_variants_validate_clean(self, variant):
        result = validated(
            wan_scenario(
                transfer_bytes=TRANSFER,
                tcp_variant=variant,
                record_trace=False,
            )
        )
        assert result.completed


class TestObserverPurity:
    """A validated run must be bit-identical to an unvalidated one."""

    @pytest.mark.parametrize(
        "scheme", [Scheme.BASIC, Scheme.EBSN, Scheme.SPLIT]
    )
    def test_validation_does_not_perturb_the_run(self, scheme):
        config = wan_scenario(
            scheme=scheme, transfer_bytes=TRANSFER, record_trace=False
        )
        plain = Scenario(config)
        plain_result = plain.run()
        checked = Scenario(config)
        checked_result = run_validated(checked, bundle_dir=False)

        def fingerprint(scenario, result):
            # The engine counters catch an observer that schedules or
            # swallows an event even when the metrics happen to agree.
            return (
                result.metrics.duration,
                result.metrics.segments_sent,
                result.metrics.retransmissions,
                result.metrics.timeouts,
                result.metrics.throughput_bps,
                scenario.sim.events_executed,
                scenario.sim.heap_pushes,
            )

        assert fingerprint(plain, plain_result) == fingerprint(
            checked, checked_result
        )


def congested_scenario():
    """EBSN behind an ECN-marking bottleneck: the routed wired segment."""
    return CongestedScenario(
        CongestedScenarioConfig(
            scheme=Scheme.EBSN,
            ecn=True,
            cross_load=0.9,
            tcp=TcpConfig(transfer_bytes=20 * 1024),
        )
    )


#: Scenario builders by name: the goldens, plus the congestion study's
#: five-link wired segment.
OBSERVED_SCENARIOS = {
    **{name: lambda name=name: Scenario(GOLDEN_SCENARIOS[name]())
       for name in GOLDEN_SCENARIOS},
    "congestion_ebsn_ecn": congested_scenario,
}


class TestObservationCounts:
    """Every checker provably observes the run it claims to check."""

    @pytest.mark.parametrize("name", sorted(OBSERVED_SCENARIOS))
    def test_every_checker_and_the_log_observe_events(self, name):
        scenario = OBSERVED_SCENARIOS[name]()
        validator = Validator(default_checkers(scenario))
        log = EventLog(scenario.sim)
        validator.attach(scenario, log)
        validator.finalize(scenario.run())
        seen = {checker.name: checker.observations for checker in validator.checkers}
        assert len(seen) == 6 and all(count > 0 for count in seen.values()), seen
        assert len(log) > 0
        assert seen["timer-sanity"] == scenario.sim.events_executed
        if name == "congestion_ebsn_ecn":
            places = {event.place for event in log.events}
            assert {"FH->R", "XS->R", "R->BS", "BS->R", "R->FH"} <= places


class TestFaultInjection:
    def test_ebsn_window_mutation_is_caught(self, tmp_path):
        config = replace(
            wan_scenario(
                scheme=Scheme.EBSN, transfer_bytes=TRANSFER, record_trace=False
            ),
            sender_factory=CwndMutatingEbsnSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            run_scenario(config, validate=True, bundle_dir=tmp_path)
        err = excinfo.value
        assert err.violations
        assert err.violations[0].checker == "ebsn-no-window-action"
        assert err.bundle_path is not None

    def test_backwards_ack_is_caught(self):
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            validated(config)
        assert excinfo.value.violations[0].checker == "tcp-state"

    @staticmethod
    def attached(checker, scenario=None):
        """``checker`` bound to a list that collects its reports."""
        reports = []
        checker.attach(scenario, reports.append)
        return reports

    def test_timer_sanity_catches_a_cancelled_event(self):
        checker = TimerSanityChecker()
        reports = self.attached(checker)
        event = Event(0.0, 0, lambda: None, ())
        event.cancel()
        checker.dispatch(Simulator(), event)
        assert reports == ["cancelled event fired (t=0.000000)"]

    def test_timer_sanity_catches_an_out_of_order_event(self):
        checker = TimerSanityChecker()
        reports = self.attached(checker)
        checker.dispatch(SimpleNamespace(now=2.0), Event(2.0, 0, print, ()))
        assert reports == []
        checker.dispatch(SimpleNamespace(now=1.0), Event(1.0, 1, print, ()))
        assert len(reports) == 1 and "out of order" in reports[0]

    def test_arq_bound_catches_attempt_rtmax_plus_one(self):
        checker = ArqBoundChecker()
        reports = self.attached(checker)
        port = SimpleNamespace(name="BS.wl", arq_config=ArqConfig(rtmax=13))
        checker.arq_transmit(port, SimpleNamespace(uid=7, attempt=13))
        assert reports == []
        checker.arq_transmit(port, SimpleNamespace(uid=7, attempt=14))
        assert reports == ["BS.wl: frame uid=7 reached 14 transmissions (RTmax=13)"]

    def test_delivery_catches_a_delivery_after_fin(self):
        scenario = Scenario(wan_scenario(transfer_bytes=TRANSFER, record_trace=False))
        checker = DeliveryChecker()
        reports = self.attached(checker, scenario)
        checker.sink_deliver(scenario.sink, 100)
        assert reports == []
        scenario.sender.completed = True
        checker.sink_deliver(scenario.sink, 100)
        assert len(reports) == 1 and "after FIN" in reports[0]

    def test_bundle_dir_false_writes_nothing(self):
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            validated(config)
        assert excinfo.value.bundle_path is None


class TestValidatorMachinery:
    def test_non_fail_fast_collects_all_violations(self):
        validator = Validator(default_checkers(None), fail_fast=False)

        class FakeSim:
            now = 1.0

        class FakeScenario:
            sim = FakeSim()

        validator._scenario = FakeScenario()
        report = validator._reporter(validator.checkers[0])
        report("first")
        report("second")
        assert [v.message for v in validator.violations] == ["first", "second"]

    def test_error_survives_pickling(self):
        import pickle

        original = InvariantViolationError(
            "boom",
            violations=(Violation("tcp-state", 1.5, "snd_una went back"),),
            bundle_path="/tmp/violation-abc.json",
        )
        clone = pickle.loads(pickle.dumps(original))
        assert clone.message == "boom"
        assert clone.violations == original.violations
        assert clone.bundle_path == original.bundle_path

    def test_violation_describe_format(self):
        v = Violation("arq-rtmax", 2.25, "too many attempts")
        assert v.describe() == "[arq-rtmax] t=2.250000: too many attempts"


class TestValidationDefault:
    def test_set_default_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        previous_on = validation_default()  # conftest turned it on
        assert previous_on is True
        set_default_validation(None)
        try:
            assert validation_default() is False
            monkeypatch.setenv("REPRO_VALIDATE", "1")
            assert validation_default() is True
            set_default_validation(False)
            assert validation_default() is False
        finally:
            set_default_validation(True)  # restore the conftest default

    def test_run_scenario_consults_the_default(self):
        # conftest sets the default on; a misbehaving sender must be
        # caught even without validate=True at the call site.
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError):
            run_scenario(config, bundle_dir=False)


class TestCustomCheckers:
    def test_run_validated_accepts_custom_checker_set(self):
        from repro.validate.engine import InvariantChecker

        seen = []

        class Recorder(InvariantChecker):
            name = "recorder"

            def finalize(self, scenario, result, report):
                seen.append(result.completed)

        scenario = Scenario(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False)
        )
        result = run_validated(scenario, bundle_dir=False, checkers=[Recorder()])
        assert result.completed
        assert seen == [True]
