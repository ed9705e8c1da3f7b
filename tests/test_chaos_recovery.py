"""Chaos tests: the campaign layer under injected faults.

Each test injects a real fault — a SIGKILLed worker, a hung unit, a
Ctrl-C mid-campaign — and asserts the recovery contract: retried units
produce aggregates bit-identical to an undisturbed serial run, units
that fail for good are quarantined with a structured record, and a
journal makes an interrupted campaign resumable without re-simulating
completed work.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.engine.simulator import WallClockExceeded
from repro.experiments import topology
from repro.experiments.config import wan_scenario
from repro.experiments.faults import (
    FAULT_ERROR,
    FAULT_TIMEOUT,
    CampaignInterrupted,
    RetryPolicy,
)
from repro.experiments.journal import CampaignJournal
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import run_replicated

from tests.test_experiments_parallel import assert_identical_aggregates

TINY = 5 * 1024

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool requires the fork start method",
)


class SeedLog:
    """Seeds the units ran for, in seed order.

    Kept in a file so units run by worker processes are counted too.
    """

    def __init__(self, path) -> None:
        self.path = path

    def add(self, seed: int) -> None:
        with open(self.path, "a") as fh:
            fh.write(f"{seed}\n")

    def seeds(self) -> list:
        if not self.path.exists():
            return []
        return sorted(int(line) for line in self.path.read_text().split())


@pytest.fixture()
def bundle_dir(tmp_path, monkeypatch):
    """Keep replay bundles out of the repo's default bundle dir."""
    target = tmp_path / "bundles"
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(target))
    return target


class TestWorkerCrashRecovery:
    @needs_fork
    def test_sigkilled_worker_is_retried_bit_identical(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """SIGKILL one worker mid-campaign; aggregates must not change."""
        config = wan_scenario(transfer_bytes=TINY)
        baseline = run_replicated(
            config, replications=4, base_seed=3, runner=ParallelRunner(workers=1)
        )

        flag = tmp_path / "killed-once"
        parent_pid = os.getpid()
        original = topology.run_scenario

        def chaotic(cfg, **kwargs):
            # First worker to pick up a unit kills itself, exactly once.
            # The parent-pid guard keeps the test process alive.
            if os.getpid() != parent_pid:
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", chaotic)
        recovered = run_replicated(
            config, replications=4, base_seed=3, runner=ParallelRunner(workers=3)
        )
        assert flag.exists(), "the chaos SIGKILL never fired"
        assert_identical_aggregates(baseline, recovered)
        assert [r.metrics for r in baseline.results] == [
            r.metrics for r in recovered.results
        ]

    @needs_fork
    def test_unresponsive_worker_is_hard_killed_and_retried(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """A worker stuck past the hard deadline is killed, not waited on."""
        config = wan_scenario(transfer_bytes=TINY)
        baseline = run_replicated(
            config, replications=3, base_seed=1, runner=ParallelRunner(workers=1)
        )

        flag = tmp_path / "hung-once"
        original = topology.run_scenario

        def hang_once(cfg, **kwargs):
            if cfg.seed == 2:
                try:
                    fd = os.open(flag, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    time.sleep(60)  # parent hard-kills long before this
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", hang_once)
        start = time.monotonic()
        recovered = run_replicated(
            config,
            replications=3,
            base_seed=1,
            runner=ParallelRunner(workers=2, timeout=0.2),
        )
        assert time.monotonic() - start < 30.0
        assert flag.exists(), "the chaos hang never fired"
        assert_identical_aggregates(baseline, recovered)


class TestTimeoutQuarantine:
    """Timeouts on in-process units; the pooled subclass reruns them."""

    workers = 1

    def test_engine_watchdog_aborts_a_runaway_simulation(self):
        from repro.engine.simulator import Simulator

        sim = Simulator()

        def forever():
            sim.schedule(1e-9, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(WallClockExceeded) as info:
            sim.run(wall_timeout=0.05)
        assert info.value.budget == 0.05
        assert info.value.events > 0

    def test_timed_out_unit_quarantined_with_partial_results(
        self, monkeypatch, bundle_dir
    ):
        """A persistently hung seed degrades the point, never the campaign."""
        config = wan_scenario(transfer_bytes=TINY)
        original = topology.run_scenario

        def hung_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise WallClockExceeded(0.2, 0.1, 1234)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", hung_seed)
        result = run_replicated(
            config,
            replications=3,
            runner=ParallelRunner(
                workers=self.workers,
                timeout=0.1,
                retry=RetryPolicy(max_retries=1),
                fail_fast=False,
            ),
        )
        assert result.partial
        assert result.replications == 2 and result.attempted == 3
        (failure,) = result.failures
        assert failure.kind == FAULT_TIMEOUT
        assert failure.seed == 2
        assert failure.attempts == 2  # first try + one retry
        assert failure.bundle_path is not None
        assert os.path.isfile(failure.bundle_path)
        assert not result.report.complete
        assert "PARTIAL" in result.report.describe()

    def test_timeout_exhaustion_raises_in_fail_fast_mode(
        self, monkeypatch, bundle_dir
    ):
        from repro.experiments.faults import UnitTimeout

        monkeypatch.setattr(
            topology,
            "run_scenario",
            lambda cfg, **kwargs: (_ for _ in ()).throw(
                WallClockExceeded(0.2, 0.1, 99)
            ),
        )
        with pytest.raises(UnitTimeout):
            run_replicated(
                wan_scenario(transfer_bytes=TINY),
                replications=2,
                runner=ParallelRunner(
                    workers=self.workers,
                    timeout=0.1,
                    retry=RetryPolicy(max_retries=0),
                ),
            )


@needs_fork
class TestTimeoutQuarantinePooled(TestTimeoutQuarantine):
    workers = 2
    # Engine-level: no campaign runs, so there is nothing to pool.
    test_engine_watchdog_aborts_a_runaway_simulation = None


class TestDeterministicErrors:
    """Unit errors on in-process units; the pooled subclass reruns them."""

    workers = 1

    def test_unit_error_is_never_retried(self, tmp_path, monkeypatch, bundle_dir):
        config = wan_scenario(transfer_bytes=TINY)
        log = SeedLog(tmp_path / "calls")
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            log.add(cfg.seed)
            if cfg.seed == 2:
                raise ValueError("deterministically broken unit")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        result = run_replicated(
            config,
            replications=3,
            runner=ParallelRunner(
                workers=self.workers,
                retry=RetryPolicy(max_retries=5),
                fail_fast=False,
            ),
        )
        calls = log.seeds()
        assert result.partial
        (failure,) = result.failures
        assert failure.kind == FAULT_ERROR
        assert failure.attempts == 1  # retrying cannot help
        assert calls.count(2) == 1

    def test_fail_fast_reraises_the_original_error(self, monkeypatch, bundle_dir):
        original = topology.run_scenario
        raised = []

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raised.append(ValueError("deterministically broken unit"))
                raise raised[-1]
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        with pytest.raises(ValueError, match="deterministically broken") as info:
            run_replicated(
                wan_scenario(transfer_bytes=TINY),
                replications=3,
                runner=ParallelRunner(workers=self.workers),
            )
        if self.workers == 1:
            assert info.value is raised[0]  # the very object, not a copy

    @needs_fork
    def test_fail_fast_reraises_the_original_error_from_the_pool(
        self, monkeypatch, bundle_dir
    ):
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise ValueError("deterministically broken unit")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        with pytest.raises(ValueError, match="deterministically broken"):
            run_replicated(
                wan_scenario(transfer_bytes=TINY),
                replications=3,
                runner=ParallelRunner(workers=2),
            )


@needs_fork
class TestDeterministicErrorsPooled(TestDeterministicErrors):
    workers = 2
    # Runs once, in the base class.
    test_fail_fast_reraises_the_original_error_from_the_pool = None


class TestInterruptAndResume:
    """Resume on in-process units; the pooled subclass reruns it."""

    workers = 1

    def test_sigint_flushes_journal_and_exits_cleanly(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        """Ctrl-C mid-campaign: completed units are already durable."""
        journal_path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY)
        baseline = run_replicated(
            config, replications=4, runner=ParallelRunner(workers=1)
        )

        calls = []
        original = topology.run_scenario

        def interrupting(cfg, **kwargs):
            calls.append(cfg.seed)
            if len(calls) == 3:
                # Delivered to this process; the campaign's flag handler
                # lets the in-flight unit finish, then aborts cleanly.
                os.kill(os.getpid(), signal.SIGINT)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", interrupting)
        journal = CampaignJournal(journal_path)
        with pytest.raises(CampaignInterrupted) as info:
            run_replicated(
                config,
                replications=4,
                runner=ParallelRunner(workers=1, journal=journal),
            )
        journal.close()
        assert info.value.completed == 3
        assert info.value.total == 4
        assert str(journal_path) in str(info.value)

        # Resume: only the un-journaled unit simulates.
        calls.clear()
        resumed_journal = CampaignJournal(journal_path)
        result = run_replicated(
            config,
            replications=4,
            runner=ParallelRunner(workers=1, journal=resumed_journal),
        )
        resumed_journal.close()
        assert calls == [4]  # seeds 1-3 came from the journal
        assert result.report.from_journal == 3
        assert_identical_aggregates(baseline, result)

    def test_keyboard_interrupt_inside_a_unit_interrupts_the_campaign(
        self, monkeypatch
    ):
        """A unit that raises KeyboardInterrupt stops the campaign like ^C."""
        original = topology.run_scenario

        def interrupted_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise KeyboardInterrupt
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", interrupted_seed)
        with pytest.raises(CampaignInterrupted) as info:
            run_replicated(
                wan_scenario(transfer_bytes=TINY),
                replications=3,
                runner=ParallelRunner(workers=1),
            )
        assert info.value.signum == signal.SIGINT
        assert (info.value.completed, info.value.total) == (1, 3)

    def test_resume_skips_every_journaled_unit(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY)
        with CampaignJournal(journal_path) as journal:
            run_replicated(
                config,
                replications=2,
                runner=ParallelRunner(workers=self.workers, journal=journal),
            )

        log = SeedLog(tmp_path / "calls")
        original = topology.run_scenario

        def counting(cfg, **kwargs):
            log.add(cfg.seed)
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", counting)
        with CampaignJournal(journal_path) as journal:
            result = run_replicated(
                config,
                replications=4,
                runner=ParallelRunner(workers=self.workers, journal=journal),
            )
        calls = log.seeds()
        assert calls == [3, 4]  # the superset's new seeds only
        assert result.report.from_journal == 2
        assert result.report.simulated == 2
        assert result.replications == 4

    def test_quarantine_is_journaled_but_not_marked_done(
        self, tmp_path, monkeypatch, bundle_dir
    ):
        journal_path = tmp_path / "camp.journal"
        config = wan_scenario(transfer_bytes=TINY)
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise ValueError("broken")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        with CampaignJournal(journal_path) as journal:
            result = run_replicated(
                config,
                replications=3,
                runner=ParallelRunner(
                    workers=self.workers, journal=journal, fail_fast=False
                ),
            )
        assert result.partial
        text = (journal_path / "failures.jsonl").read_text()
        assert '"kind": "failure"' in text
        # A failure record never satisfies a resume: the unit re-runs.
        monkeypatch.setattr(topology, "run_scenario", original)
        with CampaignJournal(journal_path) as journal:
            healed = run_replicated(
                config,
                replications=3,
                runner=ParallelRunner(workers=self.workers, journal=journal),
            )
        assert not healed.partial
        assert healed.report.from_journal == 2


@needs_fork
class TestInterruptAndResumePooled(TestInterruptAndResume):
    workers = 2
    # These interrupt from inside a unit, which reaches the campaign
    # loop only when the unit runs in the loop's own process.
    test_sigint_flushes_journal_and_exits_cleanly = None
    test_keyboard_interrupt_inside_a_unit_interrupts_the_campaign = None
