"""Campaign checkpoint journal: crash-safe resume for sweeps.

A journal is a :class:`~repro.experiments.cache.ResultCache` rooted at
the ``--resume`` directory: every completed work unit is one entry,
keyed by the same (config, seed, code-version) digest and written the
same atomic, fsynced way the moment the unit finishes.  Kill the
process at any instant and everything already journaled replays for
free.

``repro sweep --resume camp.journal`` (or handing a
:class:`CampaignJournal` to the ``ParallelRunner`` a campaign runs on)
consults the journal before simulating: units whose key is present
are loaded, everything else runs and is recorded.  Keys embed the
code-version token, so entries written by older code stop matching
after an edit — inert, never wrong — and opening the journal counts
them and warns instead of silently re-simulating everything.

Quarantined units are appended to ``<root>/failures.jsonl``, one JSON
object per line.  They are informational: a failed unit is *not*
treated as done, so a resume retries it.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any

from repro.experiments.cache import ResultCache
from repro.experiments.faults import UnitFailure

_log = logging.getLogger(__name__)


class CampaignJournal(ResultCache):
    """The checkpoint store of one (or more) campaigns.

    Opening is create-or-resume: an existing directory is scanned so
    ``len()`` counts the units recorded by this code and
    ``stale_entries`` those recorded under another code version or
    format, which will re-run.
    """

    def __init__(self, path) -> None:
        super().__init__(path)
        self.path = self.root
        self.root.mkdir(parents=True, exist_ok=True)
        self._keys = set()
        self.stale_entries = 0
        for entry_path in self.root.glob("*/*.pkl"):
            entry = self._load(entry_path)
            if self._current(entry):
                self._keys.add(entry_path.stem)
            elif entry is not None:
                self.stale_entries += 1
        if self.stale_entries:
            # Say so rather than silently re-simulating everything.
            _log.warning(
                "journal %s was written by a different code version or "
                "format; its %d completed unit(s) will not match and will "
                "re-run",
                self.path,
                self.stale_entries,
            )

    def __len__(self) -> int:
        return len(self._keys)

    def record(self, key: str, summary: Any) -> None:
        """Journal one completed unit, durably, right now."""
        self.put(key, summary)
        self._keys.add(key)

    def record_failure(self, failure: UnitFailure) -> None:
        """Journal a quarantined unit (informational; resume retries it)."""
        record = {
            "kind": "failure",
            "key": failure.key,
            "fault": failure.kind,
            "seed": failure.seed,
            "scheme": failure.scheme,
            "attempts": failure.attempts,
            "message": failure.message,
        }
        with (self.root / "failures.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def close(self) -> None:
        """Nothing to release: every write is durable when it returns."""

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
