"""Runtime invariant-validation engine.

The paper's claims are protocol invariants: EBSN never touches the
congestion window, link-layer ARQ never exceeds its RTmax attempt
budget, every transferred byte is delivered exactly once.  Fixed-
parameter scenario tests assert these at a handful of points; this
engine checks them *online*, on any run, through the components'
observation hooks (:mod:`repro.engine.observer`: simulator event
dispatch, the TCP source, the wireless ports' ARQ transmissions, the
sink's delivery path).

A :class:`Validator` observes a built-but-not-yet-run
:class:`~repro.experiments.topology.Scenario` and fans each observation
out to a set of :class:`InvariantChecker` objects.  Checkers observe only
— they never consume randomness or change timing, so a validated run
is bit-identical to an unvalidated one.  On the first violation the
run aborts with :class:`InvariantViolationError`;
:func:`run_validated` then emits a *replay bundle* (see
:mod:`repro.validate.bundle`) from which ``repro replay`` reproduces
the failure deterministically.

Validation is opt-in.  ``run_scenario(config, validate=True)`` turns
it on for one run; :func:`set_default_validation` (used by the test
suite's conftest) or ``REPRO_VALIDATE=1`` flips the process default.
Benchmarks leave it off so perf numbers are unaffected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.observer import Observer


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation (picklable, primitive fields)."""

    checker: str
    time: float
    message: str

    def describe(self) -> str:
        """Human-readable one-liner."""
        return f"[{self.checker}] t={self.time:.6f}: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised when a checker detects an invariant violation.

    Carries the violation records and (when :func:`run_validated`
    wrote one) the path of the replay bundle that reproduces the
    failure.  Defined with an explicit ``__reduce__`` so the error
    survives pickling across the parallel engine's process pool.
    """

    def __init__(
        self,
        message: str,
        violations: Sequence[Violation] = (),
        bundle_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.violations = tuple(violations)
        self.bundle_path = bundle_path

    def __reduce__(self):
        return (type(self), (self.message, self.violations, self.bundle_path))

    def __str__(self) -> str:
        if self.bundle_path:
            return f"{self.message}\nreplay bundle: {self.bundle_path}"
        return self.message


# ---------------------------------------------------------------------------
# Process-wide default (opt-in switch)
# ---------------------------------------------------------------------------

_default_validation: Optional[bool] = None


def set_default_validation(enabled: Optional[bool]) -> None:
    """Set the process-wide validation default.

    ``True``/``False`` override the environment; ``None`` restores
    "consult ``$REPRO_VALIDATE``".  The test suite's conftest turns
    this on so every ``run_scenario`` in tier-1 runs validated.
    """
    global _default_validation
    _default_validation = enabled


def validation_default() -> bool:
    """Whether runs validate when the caller does not say."""
    if _default_validation is not None:
        return _default_validation
    return os.environ.get("REPRO_VALIDATE", "").lower() not in ("", "0", "false", "no")


# ---------------------------------------------------------------------------
# Checker base and validator
# ---------------------------------------------------------------------------


class InvariantChecker(Observer):
    """Base class for pluggable invariant checkers.

    A checker is an :class:`~repro.engine.Observer`: it overrides the
    observation points it needs and counts each one it sees in
    ``observations``.  ``attach`` hands it the ``report(message)``
    callable that records a violation (and, in fail-fast mode, aborts
    the run by raising); ``finalize`` runs end-of-run checks over the
    result.  Checkers must be pure observers: no RNG draws, no
    scheduling, no state mutation visible to the system under test.
    """

    #: Stable identifier used in violation records and replay bundles.
    name = "checker"

    observations = 0  # points seen; an end-of-run pass counts as one

    def attach(self, scenario, report) -> None:
        """Bind ``report``; subclasses may also note facts of ``scenario``."""
        self.report = report

    def finalize(self, scenario, result, report) -> None:
        """Check end-of-run invariants over the completed result."""


#: The observation points (see :mod:`repro.engine.observer`).
_POINTS = [name for name in vars(Observer) if not name.startswith("_")]


def _fan_out(observe):
    def fan(*args):
        for o in observe:
            o(*args)

    return fan


class Validator(Observer):
    """Observes one scenario and fans each observation point out to the
    checkers (and extra observers, such as an event log) overriding it."""

    def __init__(
        self, checkers: Sequence[InvariantChecker], fail_fast: bool = True
    ) -> None:
        self.checkers = list(checkers)
        self.fail_fast = fail_fast
        self.violations: List[Violation] = []
        self._scenario = None

    def attach(self, scenario, *observers: Observer) -> "Validator":
        """Observe ``scenario`` for every checker and ``observers``.

        A point one observer overrides is bound straight to its method;
        a point several override gets a small fan-out loop.
        """
        self._scenario = scenario
        for checker in self.checkers:
            checker.attach(scenario, self._reporter(checker))
        everyone = (*self.checkers, *observers)
        for point in _POINTS:
            observe = [getattr(o, point) for o in everyone
                       if getattr(type(o), point) is not getattr(Observer, point)]
            if observe:
                setattr(self, point, observe[0] if len(observe) == 1 else _fan_out(observe))
        scenario.observe(self)
        return self

    def finalize(self, result) -> None:
        """Run every checker's end-of-run pass over ``result``."""
        for checker in self.checkers:
            checker.finalize(self._scenario, result, self._reporter(checker))

    def _reporter(self, checker: InvariantChecker):
        def report(message: str) -> None:
            now = self._scenario.sim.now if self._scenario is not None else 0.0
            violation = Violation(checker=checker.name, time=now, message=message)
            self.violations.append(violation)
            if self.fail_fast:
                raise InvariantViolationError(
                    f"invariant violated {violation.describe()}",
                    violations=tuple(self.violations),
                )

        return report


def run_validated(scenario, bundle_dir=None, checkers=None, wall_timeout=None):
    """Run a built scenario under the invariant engine.

    On violation, writes a replay bundle (canonical config + seed +
    the last ``LOG_TAIL_LINES`` event-log lines, the only ones the run
    keeps) and re-raises :class:`InvariantViolationError`
    with ``bundle_path`` set.  ``bundle_dir`` chooses where bundles
    land (``None`` = the default directory, ``False`` = don't write
    one — the replay path uses this to avoid bundling the bundle).
    ``wall_timeout`` arms the engine's wall-clock watchdog, exactly as
    in the unvalidated path.
    """
    from repro.metrics.eventlog import EventLog
    from repro.validate.bundle import LOG_TAIL_LINES, write_bundle
    from repro.validate.checkers import default_checkers

    validator = Validator(
        checkers if checkers is not None else default_checkers(scenario)
    )
    # A bundle keeps only the log's tail, so the run keeps no more.
    log = EventLog(scenario.sim, maxlen=LOG_TAIL_LINES)
    validator.attach(scenario, log)
    try:
        result = scenario.run(wall_timeout=wall_timeout)
        validator.finalize(result)
    except InvariantViolationError as err:
        if bundle_dir is not False:
            err.bundle_path = str(
                write_bundle(scenario.config, err.violations, log, bundle_dir)
            )
        raise
    return result
