"""Replay bundles: deterministic reproduction of invariant violations.

A bundle is one JSON file capturing everything needed to re-run a
failed scenario bit-identically: the full
:class:`~repro.experiments.topology.ScenarioConfig` (in the reversible
:func:`~repro.experiments.cache.encode_value` form the digest hashes,
seed included), the violations observed, the tail of the
event log leading up to the failure, and the
:func:`~repro.experiments.cache.config_digest` / code-version token of
the run that produced it — the same content-addressing machinery the
result cache uses, so a bundle names the exact (config, seed, code)
point that failed.

``repro replay <bundle.json>`` (or :func:`replay_bundle`) rebuilds the
config and re-runs it under the validator.  Because every run is
deterministic given (config, seed), the replay either reproduces the
recorded violation exactly — confirming the bug — or proves the
failure was environmental (e.g. the code changed; the bundle records
the original code token so the mismatch is visible).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.experiments.cache import (
    code_version_token,
    config_digest,
    decode_value,
    default_cache_dir,
    encode_value,
)
from repro.validate.engine import InvariantViolationError, Violation

#: Bump when the bundle layout changes incompatibly.
BUNDLE_FORMAT = 1

#: Event-log lines kept in a bundle (the tail leading to the failure).
LOG_TAIL_LINES = 400


def default_bundle_dir() -> Path:
    """Where violation bundles are written unless told otherwise."""
    env = os.environ.get("REPRO_BUNDLE_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "bundles"


# ---------------------------------------------------------------------------
# Bundle objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayBundle:
    """One loaded replay bundle."""

    config: Any  # the reconstructed ScenarioConfig
    seed: int
    digest: str
    code_token: str
    violations: Tuple[Violation, ...]
    event_log_tail: Tuple[str, ...]
    path: Optional[Path] = None


def write_bundle(config, violations: Sequence[Violation], log, bundle_dir=None) -> Path:
    """Persist one violation as a replay bundle; returns its path.

    ``log`` is the :class:`~repro.metrics.eventlog.EventLog` the
    validated run recorded (may be ``None``); only the last
    ``LOG_TAIL_LINES`` lines are kept.
    """
    directory = Path(bundle_dir) if bundle_dir is not None else default_bundle_dir()
    directory.mkdir(parents=True, exist_ok=True)
    digest = config_digest(config)
    tail: List[str] = []
    if log is not None:
        tail = [event.to_line() for event in log.events[-LOG_TAIL_LINES:]]
    payload = {
        "format": BUNDLE_FORMAT,
        "kind": "repro-replay-bundle",
        "digest": digest,
        "code_token": code_version_token(),
        "seed": config.seed,
        "config": encode_value(config),
        "violations": [
            {"checker": v.checker, "time": v.time, "message": v.message}
            for v in violations
        ],
        "event_log_tail": tail,
    }
    path = directory / f"violation-{digest[:12]}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_bundle(path) -> ReplayBundle:
    """Load and decode one replay bundle."""
    path = Path(path)
    payload = json.loads(path.read_text())
    if payload.get("kind") != "repro-replay-bundle":
        raise ValueError(f"{path} is not a replay bundle")
    if payload.get("format") != BUNDLE_FORMAT:
        raise ValueError(
            f"{path}: bundle format {payload.get('format')!r} is not "
            f"supported (expected {BUNDLE_FORMAT})"
        )
    return ReplayBundle(
        config=decode_value(payload["config"]),
        seed=payload["seed"],
        digest=payload["digest"],
        code_token=payload["code_token"],
        violations=tuple(
            Violation(v["checker"], v["time"], v["message"])
            for v in payload["violations"]
        ),
        event_log_tail=tuple(payload["event_log_tail"]),
        path=path,
    )


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of re-running a bundle under the validator."""

    bundle: ReplayBundle
    #: Violations the replay produced (empty = did not reproduce).
    violations: Tuple[Violation, ...]
    #: True when the replay hit the same first violation (checker and
    #: message identical — runs are deterministic, so a real bug
    #: reproduces exactly).
    reproduced: bool
    #: Whether the code version still matches the recording.
    code_matches: bool


def replay_bundle(path) -> ReplayOutcome:
    """Re-run a bundle's scenario under validation and compare."""
    from repro.experiments.topology import run_scenario

    bundle = load_bundle(path)
    code_matches = bundle.code_token == code_version_token()
    violations: Tuple[Violation, ...] = ()
    try:
        # bundle_dir=False: reproducing a failure must not mint a new
        # bundle for the same failure.
        run_scenario(bundle.config, validate=True, bundle_dir=False)
    except InvariantViolationError as err:
        violations = err.violations
    reproduced = bool(
        violations
        and bundle.violations
        and violations[0].checker == bundle.violations[0].checker
        and violations[0].message == bundle.violations[0].message
    )
    return ReplayOutcome(
        bundle=bundle,
        violations=violations,
        reproduced=reproduced,
        code_matches=code_matches,
    )
