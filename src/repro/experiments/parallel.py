"""Parallel experiment engine: fault-tolerant fan-out over worker processes.

Every figure in the paper is an average over independent seeds, and
every seed is an independent single-threaded simulation — an
embarrassingly parallel workload.  :class:`ParallelRunner` takes a
list of fully-seeded :class:`~repro.experiments.topology.ScenarioConfig`
work units, looks each one up in the attached stores — an optional
:class:`~repro.experiments.cache.ResultCache`, then an optional
:class:`~repro.experiments.journal.CampaignJournal`, which is the same
store rooted at the ``--resume`` directory — and runs only the
remaining misses, one unit at a time, through a single scheduling
loop.  A hit is written back to every store that missed it.  Where
the outcomes come from is the only thing that varies: an in-process
source runs each unit synchronously, a supervised pool of forked
worker processes runs them concurrently.

The supervision layer is what makes long campaigns survivable:

* **Per-unit submission** — each unit is sent to a worker and its
  result collected individually, so one bad unit can never poison a
  batch the way a chunked ``pool.map`` does.
* **Watchdogs** — a unit gets a wall-clock budget (``timeout``).  The
  unit aborts cooperatively via the engine watchdog
  (:class:`~repro.engine.simulator.WallClockExceeded`) and writes a
  replay bundle naming the hung config; if a pool worker itself is
  stuck (not even reaching the watchdog), the supervisor SIGKILLs it
  after a grace period and respawns a fresh one.
* **Retry with backoff** — timeouts and worker crashes are retried up
  to :class:`~repro.experiments.faults.RetryPolicy.max_retries` times
  with exponential backoff and full jitter; deterministic unit errors
  are never retried.
* **Quarantine / graceful degradation** — a unit that fails every
  attempt is recorded as a structured
  :class:`~repro.experiments.faults.UnitFailure` and the campaign
  continues (``fail_fast=False``) or aborts with a taxonomy exception
  (``fail_fast=True``, the library default).
* **Durability** — every completed summary is written, fsynced, to
  every attached store the moment it lands, and SIGINT/SIGTERM raise
  :class:`~repro.experiments.faults.CampaignInterrupted` after
  flushing, so an interrupted campaign resumes instead of restarting.

Workers return :class:`RunSummary` — a small picklable record of the
metrics the aggregation layer reads.  Results come back in input
order, so the aggregates downstream are bit-identical to a serial run
over the same seeds, faults or no faults.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.simulator import WallClockExceeded
from repro.experiments import topology
from repro.experiments.cache import ResultCache
from repro.experiments.faults import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_TIMEOUT,
    CampaignInterrupted,
    CompletenessReport,
    RetryPolicy,
    UnitFailure,
    UnitQuarantined,
)
from repro.experiments.journal import CampaignJournal
from repro.experiments.topology import ScenarioConfig, ScenarioResult
from repro.metrics import ConnectionMetrics

_log = logging.getLogger(__name__)

#: The supervisor hard-kills a worker this long after the cooperative
#: in-worker watchdog should have fired: ``timeout * factor + slack``.
HARD_KILL_FACTOR = 1.5
HARD_KILL_SLACK = 1.0

#: Poll granularity of the supervision loop, seconds.  Bounds how
#: stale the watchdog/interrupt checks can get; results themselves
#: wake the loop immediately.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class RunSummary:
    """The picklable essence of one scenario run.

    Exactly what replication/sweep aggregation consumes: the connection
    metrics, the completion flag, the theoretical ceiling, and the
    seeded config the run was built from.  ``trace`` is always ``None``
    — replicated runs disable tracing — and exists so summary objects
    satisfy the same reads (``r.trace``, ``r.config.seed``, ...) that
    full results do.
    """

    config: ScenarioConfig
    metrics: ConnectionMetrics
    completed: bool
    tput_th_bps: float
    trace: None = None


def summarize(result: ScenarioResult) -> RunSummary:
    """Collapse a full scenario result to its picklable summary."""
    return RunSummary(
        config=result.config,
        metrics=result.metrics,
        completed=result.completed,
        tput_th_bps=result.tput_th_bps,
    )


def _execute_unit(
    config: ScenarioConfig,
    wall_timeout: Optional[float] = None,
    validate: bool = False,
) -> RunSummary:
    """Worker entry point: run one seeded config, return its summary.

    Module-level (not a closure) so worker processes can pickle it;
    looked up through :mod:`repro.experiments.topology` at call time so
    tests can monkeypatch ``run_scenario`` and count invocations.
    ``wall_timeout`` arms the engine's cooperative watchdog.
    ``validate=True`` attaches the invariant engine: a violation raises
    :class:`~repro.validate.InvariantViolationError`, which the loop
    treats as a deterministic unit error (never retried).  Unset
    arguments are not passed on, so ``validate=False`` leaves the
    process-wide validation default in charge.
    """
    kwargs = {}
    if wall_timeout is not None:
        kwargs["wall_timeout"] = wall_timeout
    if validate:
        kwargs["validate"] = True
    return summarize(topology.run_scenario(config, **kwargs))


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None``/``1`` → serial; ``0`` or negative → one worker per CPU.
    """
    if workers is None:
        return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or ``None`` where unavailable.

    Fork keeps worker startup at microseconds (no re-import of the
    package per worker); on platforms without it we stay serial rather
    than pay spawn's interpreter boot per pool.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _write_hang_bundle(config: ScenarioConfig, elapsed: float) -> Optional[str]:
    """Record a timed-out config as a replay bundle; best-effort.

    The bundle names the exact (config, seed, code) point that hung,
    so ``repro replay <bundle>`` reproduces the runaway run under a
    debugger instead of leaving "it timed out once" unactionable.
    """
    try:
        from repro.validate.bundle import write_bundle
        from repro.validate.engine import Violation

        violation = Violation(
            checker="watchdog",
            time=elapsed,
            message=f"unit exceeded its wall-clock budget after {elapsed:.2f}s",
        )
        return str(write_bundle(config, [violation], log=None))
    except Exception:  # pragma: no cover - bundle dir unwritable etc.
        return None


@dataclass
class _RemoteError:
    """A worker exception that could not be pickled whole."""

    type_name: str
    message: str


def _portable_error(exc: BaseException):
    """``exc`` itself when it pickles, else a :class:`_RemoteError`."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return _RemoteError(type(exc).__name__, str(exc))


def _attempt(
    unit_fn, config: ScenarioConfig, wall_timeout: Optional[float]
) -> Tuple:
    """Run one unit once; return its tagged outcome.

    The single place a unit executes, whether in this process or in a
    pool worker.  Outcomes are tagged tuples::

        ("ok",      summary)
        ("timeout", message, bundle_path)
        ("err",     exception)

    Only ``Exception`` is caught, so a ``KeyboardInterrupt`` inside an
    in-process unit still reaches the campaign loop.
    """
    started = time.monotonic()
    try:
        return ("ok", unit_fn(config, wall_timeout))
    except WallClockExceeded:
        bundle = _write_hang_bundle(config, time.monotonic() - started)
        message = f"wall-clock budget of {wall_timeout:g}s exceeded"
        return ("timeout", message, bundle)
    except Exception as exc:
        return ("err", exc)


def _worker_main(conn, unit_fn) -> None:
    """Worker process loop: receive a unit, run it, send the outcome.

    SIGINT is ignored (the terminal delivers Ctrl-C to the whole
    process group; shutdown is the supervisor's decision, via a
    ``None`` sentinel or SIGKILL).  The outcome is :func:`_attempt`'s
    tagged tuple; any other exception the unit raises is its error
    too, and an error that will not pickle travels as a
    :class:`_RemoteError`.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        config, wall_timeout = task
        try:
            outcome = _attempt(unit_fn, config, wall_timeout)
        except BaseException as exc:
            outcome = ("err", exc)
        if outcome[0] == "err":
            outcome = ("err", _portable_error(outcome[1]))
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break


@dataclass
class _Task:
    """Supervisor-side state of one work unit."""

    index: int  #: position in the campaign's config list
    config: ScenarioConfig
    key: Optional[str]
    attempts: int = 0  #: executions consumed so far
    errors: List[str] = field(default_factory=list)
    not_before: float = 0.0  #: monotonic time the next attempt may start
    bundle_path: Optional[str] = None


def _pop_ready(pending: "deque[_Task]", now: float) -> Optional[_Task]:
    """Remove and return the first task whose backoff has elapsed."""
    for i, task in enumerate(pending):
        if task.not_before <= now:
            del pending[i]
            return task
    return None


class _WorkerHandle:
    """One supervised worker process and its duplex pipe."""

    def __init__(self, context, unit_fn) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn, unit_fn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[_Task] = None
        self.started_at: float = 0.0

    def assign(self, task: _Task, wall_timeout: Optional[float]) -> None:
        self.task = task
        self.started_at = time.monotonic()
        self.conn.send((task.config, wall_timeout))

    def kill(self) -> None:
        """SIGKILL the worker and reap it."""
        try:
            self.process.kill()
            self.process.join()
        finally:
            self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join()
        self.conn.close()


class _InProcess:
    """Outcome source that runs each unit here, synchronously, on start.

    Used for ``workers == 1``, a single unit, or a platform without
    fork.  No crash can happen and there is no hard-kill watchdog:
    timeouts come from the engine's cooperative watchdog alone.
    """

    def __init__(self, unit_fn, timeout: Optional[float]) -> None:
        self.unit_fn = unit_fn
        self.timeout = timeout
        self.finished: List[Tuple[_Task, Tuple]] = []

    def idle(self) -> bool:
        return not self.finished

    def busy(self) -> bool:
        return bool(self.finished)

    def start(self, task: _Task) -> None:
        outcome = _attempt(self.unit_fn, task.config, self.timeout)
        self.finished.append((task, outcome))

    def collect(self) -> List[Tuple[_Task, Tuple]]:
        finished, self.finished = self.finished, []
        return finished

    def close(self) -> None:
        pass


class _Pool:
    """Outcome source backed by supervised forked worker processes.

    Each worker runs :func:`_attempt` and sends the outcome over its
    pipe.  Two outcomes exist only here, both followed by a respawn: a
    worker that died (``("crash", message)``) and one hard-killed past
    the deadline (a ``"timeout"`` outcome).
    """

    def __init__(
        self, context, unit_fn, size: int, timeout: Optional[float]
    ) -> None:
        self.context = context
        self.unit_fn = unit_fn
        self.timeout = timeout
        self.hard_timeout = (
            timeout * HARD_KILL_FACTOR + HARD_KILL_SLACK
            if timeout is not None
            else None
        )
        self.workers = [_WorkerHandle(context, unit_fn) for _ in range(size)]

    def idle(self) -> bool:
        return any(w.task is None for w in self.workers)

    def busy(self) -> bool:
        return any(w.task is not None for w in self.workers)

    def start(self, task: _Task) -> None:
        worker = next(w for w in self.workers if w.task is None)
        worker.assign(task, self.timeout)

    def collect(self) -> List[Tuple[_Task, Tuple]]:
        """Every outcome that lands within one poll tick."""
        busy = [w for w in self.workers if w.task is not None]
        # Wake on a result, a worker death, or the poll tick.
        multiprocessing.connection.wait(
            [w.conn for w in busy] + [w.process.sentinel for w in busy],
            timeout=POLL_INTERVAL,
        )
        finished = []
        for worker in busy:
            if worker.conn.poll():
                try:
                    outcome = worker.conn.recv()
                except (EOFError, OSError):
                    # A dead worker's pipe polls readable (EOF).
                    outcome = self._crashed(worker)
            elif not worker.process.is_alive():
                outcome = self._crashed(worker)
            elif (
                self.hard_timeout is not None
                and time.monotonic() - worker.started_at > self.hard_timeout
            ):
                outcome = self._hung(worker)
            else:
                continue
            finished.append((worker.task, outcome))
            worker.task = None
        return finished

    def _replace(self, worker: _WorkerHandle) -> None:
        """SIGKILL and reap a dead or stuck worker; respawn it in place."""
        worker.kill()
        index = self.workers.index(worker)
        self.workers[index] = _WorkerHandle(self.context, self.unit_fn)

    def _crashed(self, worker: _WorkerHandle) -> Tuple:
        worker.process.join(timeout=1.0)  # reap so exitcode is real
        exitcode = worker.process.exitcode
        self._replace(worker)
        return ("crash", f"worker process died (exit code {exitcode})")

    def _hung(self, worker: _WorkerHandle) -> Tuple:
        """The hard-deadline kill: a timeout, with a hang bundle."""
        self._replace(worker)
        task = worker.task
        bundle = task.bundle_path or _write_hang_bundle(
            task.config, time.monotonic() - worker.started_at
        )
        message = (
            f"worker unresponsive past the hard deadline "
            f"({self.timeout:g}s budget); killed"
        )
        return ("timeout", message, bundle)

    def close(self) -> None:
        for worker in self.workers:
            if worker.process.is_alive() and worker.task is None:
                worker.stop()
            else:
                worker.kill()


@dataclass
class CampaignResult:
    """Outcome of one campaign: ordered summaries plus completeness.

    ``summaries[i]`` is ``None`` exactly when unit ``i`` was
    quarantined; ``report.quarantined`` says why.
    """

    summaries: List[Optional[RunSummary]]
    report: CompletenessReport

    def require_complete(self) -> List[RunSummary]:
        """All summaries, or the first quarantined unit's exception."""
        if self.report.quarantined:
            raise self.report.quarantined[0].to_exception()
        assert all(s is not None for s in self.summaries)
        return self.summaries  # type: ignore[return-value]

    def surviving(self) -> List[RunSummary]:
        """The summaries that completed (graceful-degradation view)."""
        return [s for s in self.summaries if s is not None]


class ParallelRunner:
    """Runs batches of seeded scenario configs with fault tolerance.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs in-process; ``0`` means
        one per CPU.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely
        and fresh results are written back per unit, immediately.
    validate:
        Run every simulated unit under the invariant engine
        (:mod:`repro.validate`).  Cache hits skip simulation and are
        therefore not re-validated.
    timeout:
        Per-unit wall-clock budget in seconds; ``None`` disables the
        watchdogs.  In pool mode a unit that overshoots is aborted
        cooperatively (or its worker hard-killed at
        ``timeout * 1.5 + 1`` as a backstop); in-process only the
        cooperative engine watchdog applies.
    retry:
        :class:`RetryPolicy` for timeouts and worker crashes.
        ``None`` uses the defaults (2 retries, exponential backoff
        with full jitter).
    fail_fast:
        When ``True`` (default) the first quarantined unit aborts the
        campaign with its taxonomy exception; when ``False`` the
        campaign degrades gracefully to partial results plus a
        completeness report.
    journal:
        Optional :class:`CampaignJournal`.  Completed units are
        journaled immediately and journaled units are skipped, which
        is what ``--resume`` builds on.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        validate: bool = False,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fail_fast: bool = True,
        journal: Optional[CampaignJournal] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.validate = validate
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.fail_fast = fail_fast
        self.journal = journal

    # -- bookkeeping helpers ----------------------------------------------

    def _fail(self, task: _Task, kind: str, message: str) -> UnitFailure:
        return UnitFailure(
            index=task.index,
            key=task.key,
            seed=task.config.seed,
            scheme=task.config.scheme.value,
            kind=kind,
            message=message,
            attempts=task.attempts,
            bundle_path=task.bundle_path,
        )

    def _quarantine(
        self, task: _Task, kind: str, message: str, failures: Dict[int, UnitFailure]
    ) -> None:
        """Record a unit that failed for good; raise in fail-fast mode."""
        failure = self._fail(task, kind, message)
        if self.journal is not None:
            self.journal.record_failure(failure)
        if self.fail_fast:
            raise failure.to_exception()
        _log.warning("quarantined: %s", failure.describe())
        failures[task.index] = failure

    def _retry_or_quarantine(
        self,
        task: _Task,
        kind: str,
        message: str,
        pending: "deque[_Task]",
        failures: Dict[int, UnitFailure],
    ) -> None:
        """Requeue a retryable fault with backoff, or quarantine it."""
        task.errors.append(f"attempt {task.attempts}: {kind}: {message}")
        if task.attempts <= self.retry.max_retries:
            delay = self.retry.delay(task.attempts - 1, task.key or str(task.index))
            task.not_before = time.monotonic() + delay
            _log.warning(
                "unit %d (seed %d): %s — retry %d/%d in %.2fs",
                task.index,
                task.config.seed,
                kind,
                task.attempts,
                self.retry.max_retries,
                delay,
            )
            pending.append(task)
            return
        self._quarantine(task, kind, "; ".join(task.errors), failures)

    # -- the campaign loop --------------------------------------------------

    def _source(self, n_tasks: int):
        """Where outcomes come from: a worker pool, or this process."""
        unit_fn = functools.partial(_execute_unit, validate=self.validate)
        if self.workers > 1 and n_tasks > 1:
            context = _fork_context()
            if context is not None:
                size = min(self.workers, n_tasks)
                return _Pool(context, unit_fn, size, self.timeout)
            _log.warning(
                "fork start method unavailable: running %d "
                "unit(s) serially despite --workers %d "
                "(spawn would re-import the package per "
                "worker; hard-kill watchdogs disabled)",
                n_tasks,
                self.workers,
            )
        return _InProcess(unit_fn, self.timeout)

    def _interrupted(self, signum: int, completed: int, total: int):
        journal = str(self.journal.path) if self.journal else None
        return CampaignInterrupted(signum, completed, total, journal)

    def _schedule(
        self,
        tasks: List[_Task],
        deliver: Callable[[int, RunSummary], None],
        interrupted: Dict[str, Optional[int]],
        completed: Callable[[], int],
        total: int,
    ) -> Dict[int, UnitFailure]:
        """Run every task to an outcome: the one retry/quarantine loop.

        Hands each unit whose backoff has elapsed to the outcome
        source, routes every outcome through :meth:`_on_outcome`, and
        checks for SIGINT/SIGTERM between units.
        """
        source = self._source(len(tasks))
        pending = deque(tasks)
        failures: Dict[int, UnitFailure] = {}
        try:
            while pending or source.busy():
                if interrupted["sig"] is not None:
                    raise self._interrupted(interrupted["sig"], completed(), total)
                now = time.monotonic()
                while pending and source.idle():
                    task = _pop_ready(pending, now)
                    if task is None:
                        break  # everything pending is backing off
                    task.attempts += 1
                    source.start(task)
                if not source.busy():
                    wait = min(t.not_before for t in pending) - now
                    time.sleep(min(wait, POLL_INTERVAL))
                    continue
                for task, outcome in source.collect():
                    self._on_outcome(task, outcome, deliver, pending, failures)
        except KeyboardInterrupt:
            # An in-process unit raised KeyboardInterrupt itself.
            raise self._interrupted(signal.SIGINT, completed(), total)
        finally:
            source.close()
        return failures

    def _on_outcome(self, task, outcome, deliver, pending, failures) -> None:
        """Deliver one attempt's outcome, or retry or quarantine its unit."""
        kind = outcome[0]
        if kind == "ok":
            deliver(task.index, outcome[1])
        elif kind == "timeout":
            task.bundle_path = outcome[2]
            self._retry_or_quarantine(
                task, FAULT_TIMEOUT, outcome[1], pending, failures
            )
        elif kind == "crash":
            self._retry_or_quarantine(
                task, FAULT_CRASH, outcome[1], pending, failures
            )
        else:  # "err": deterministic unit failure — never retried
            error = outcome[1]
            if isinstance(error, BaseException):
                if self.fail_fast:
                    raise error
                detail = f"{type(error).__name__}: {error}"
            else:
                detail = f"{error.type_name}: {error.message}"
                if self.fail_fast:
                    raise UnitQuarantined(self._fail(task, FAULT_ERROR, detail))
            self._quarantine(task, FAULT_ERROR, detail, failures)

    # -- campaign orchestration -------------------------------------------

    def run_campaign(self, configs: Sequence[ScenarioConfig]) -> CampaignResult:
        """Run every config with full fault handling.

        Returns a :class:`CampaignResult`: summaries in input order
        (``None`` for quarantined units) and a
        :class:`~repro.experiments.faults.CompletenessReport`.
        Completed units are written to the cache/journal the moment
        they land, so any crash or interrupt preserves them.
        """
        configs = list(configs)
        n = len(configs)
        summaries: List[Optional[RunSummary]] = [None] * n
        keys: List[Optional[str]] = [None] * n
        # The attached stores in lookup order, each with its write call.
        stores = []
        if self.cache is not None:
            stores.append(("cache", self.cache, self.cache.put))
        if self.journal is not None:
            stores.append(("journal", self.journal, self.journal.record))
        hits = {"cache": 0, "journal": 0}
        # Accumulated wall-clock cost of write-back durability.
        write_seconds = {"cache": 0.0, "journal": 0.0}

        def write(targets, key: str, summary: RunSummary) -> None:
            for name, _, put in targets:
                t0 = time.perf_counter()
                put(key, summary)
                write_seconds[name] += time.perf_counter() - t0

        tasks: List[_Task] = []
        for i, config in enumerate(configs):
            # Every store keys a unit by the same digest.
            keys[i] = stores[0][1].key(config) if stores else None
            for depth, (name, store, _) in enumerate(stores):
                summaries[i] = store.get(keys[i])
                if summaries[i] is not None:
                    hits[name] += 1
                    # Fill every store that missed: the journal is
                    # per-campaign, the cache lives on.
                    write(stores[:depth], keys[i], summaries[i])
                    break
            else:
                tasks.append(_Task(index=i, config=config, key=keys[i]))

        def deliver(index: int, summary: RunSummary) -> None:
            summaries[index] = summary
            write(stores, keys[index], summary)

        def completed() -> int:
            return sum(1 for s in summaries if s is not None)

        failures: Dict[int, UnitFailure] = {}
        if tasks:
            interrupted: Dict[str, Optional[int]] = {"sig": None}

            def _flag(signum, frame):
                interrupted["sig"] = signum

            previous: List[Tuple[int, object]] = []
            try:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    previous.append((signum, signal.signal(signum, _flag)))
            except ValueError:
                # Not the main thread: signals stay with their owner.
                pass
            try:
                failures = self._schedule(tasks, deliver, interrupted, completed, n)
            finally:
                for signum, handler in previous:
                    signal.signal(signum, handler)

        report = CompletenessReport(
            total=n,
            completed=completed(),
            from_cache=hits["cache"],
            from_journal=hits["journal"],
            quarantined=tuple(
                failures[i] for i in sorted(failures)
            ),
            cache_write_seconds=write_seconds["cache"],
            journal_write_seconds=write_seconds["journal"],
        )
        return CampaignResult(summaries=summaries, report=report)

    def run(self, configs: Sequence[ScenarioConfig]) -> List[RunSummary]:
        """Run every config, in input order; raise on any quarantine.

        The strict interface: callers that cannot use partial results
        get the first failure as its taxonomy exception.  Use
        :meth:`run_campaign` for graceful degradation.
        """
        return self.run_campaign(configs).require_complete()
