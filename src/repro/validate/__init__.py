"""Runtime invariant validation with deterministic failure replay.

See :mod:`repro.validate.engine` for the architecture.  The usual
entry points:

* ``run_scenario(config, validate=True)`` — one validated run.
* ``run_replicated(..., runner=ParallelRunner(validate=True))`` (same
  for ``sweep``) — validated replication (also behind the CLI's
  ``--validate``).
* :func:`set_default_validation` — flip the process default (the test
  suite turns it on; benchmarks leave it off).
* :func:`replay_bundle` / ``repro replay <bundle>`` — reproduce a
  recorded violation deterministically.

:mod:`repro.validate.oracles` is imported explicitly by its users (it
depends on the experiment layer, which itself imports this package).
"""

from repro.validate.bundle import (
    ReplayBundle,
    ReplayOutcome,
    default_bundle_dir,
    load_bundle,
    replay_bundle,
    write_bundle,
)
from repro.validate.checkers import (
    ArqBoundChecker,
    ConservationChecker,
    DeliveryChecker,
    EbsnWindowChecker,
    TcpStateChecker,
    TimerSanityChecker,
    default_checkers,
)
from repro.validate.engine import (
    InvariantChecker,
    InvariantViolationError,
    Validator,
    Violation,
    run_validated,
    set_default_validation,
    validation_default,
)

__all__ = [
    "ArqBoundChecker",
    "ConservationChecker",
    "DeliveryChecker",
    "EbsnWindowChecker",
    "InvariantChecker",
    "InvariantViolationError",
    "ReplayBundle",
    "ReplayOutcome",
    "TcpStateChecker",
    "TimerSanityChecker",
    "Validator",
    "Violation",
    "default_bundle_dir",
    "default_checkers",
    "load_bundle",
    "replay_bundle",
    "run_validated",
    "set_default_validation",
    "validation_default",
    "write_bundle",
]
