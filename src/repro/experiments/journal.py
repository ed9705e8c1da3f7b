"""Campaign checkpoint journal: crash-safe resume for sweeps.

A journal is an append-only JSONL file recording every completed work
unit of a campaign — its content-addressed key (the same
(config, seed, code-version) digest the result cache uses) and its
pickled :class:`~repro.experiments.parallel.RunSummary`.  Each record
is flushed and fsynced the moment the unit finishes, so the file is
exactly as durable as the work it describes: kill the process at any
instant and everything already journaled replays for free.

``repro sweep --resume camp.journal`` (or handing a
:class:`CampaignJournal` to the ``ParallelRunner`` a campaign runs on)
consults the journal before simulating: units whose key is present
are loaded, everything else runs and is appended.  Because keys embed
the code-version token, a journal written by older code simply stops
matching after an edit — stale entries are inert, never wrong.

Every unit belongs to the header above it.  Reopening a journal whose
last header names another code version (or format) appends a fresh
header first, so units recorded now are never mistaken for stale ones
on the next resume.

Layout (one JSON object per line)::

    {"kind": "header", "format": 1, "code": "<token>"}
    {"kind": "unit", "key": "<digest>", "summary": "<base64 pickle>"}
    {"kind": "failure", "key": ..., "fault": "timeout", ...}

A torn final line (the writer died mid-append) is tolerated and
ignored on load.  Failure records are informational — a failed unit
is *not* treated as done, so a resume retries it.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.cache import code_version_token, config_digest
from repro.experiments.faults import UnitFailure

_log = logging.getLogger(__name__)

#: Bump when the journal layout changes incompatibly.
JOURNAL_FORMAT = 1


class CampaignJournal:
    """Append-only checkpoint file for one (or more) campaigns.

    Opening is create-or-resume: an existing file is scanned and its
    completed units become immediately available through :meth:`get`;
    a missing file is created with a header line, and a file whose
    last header is foreign gets a current one appended.  The journal
    object is also an append handle — :meth:`record` makes one unit
    durable.  ``stale_entries`` counts the units recorded under a
    foreign header (another code version or format), which will re-run.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._entries: Dict[str, Any] = {}
        self._code_token = code_version_token()
        self._header = {
            "kind": "header",
            "format": JOURNAL_FORMAT,
            "code": self._code_token,
        }
        self.stale_entries = 0
        self.torn_lines = 0
        current = self._load_existing()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        if self.path.stat().st_size == 0 or not current:
            self._append(self._header)

    # -- reading -----------------------------------------------------------

    def _load_existing(self) -> bool:
        """Load the units under current headers; count the rest as stale.

        Returns whether new records may follow the file's last header
        (true for a missing or header-less file).
        """
        if not self.path.is_file():
            return True
        current = True
        stale = set()
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # The writer died mid-append; everything before the
                # torn line is intact and usable.
                self.torn_lines += 1
                continue
            kind = record.get("kind")
            if kind == "header":
                if record.get("format") != JOURNAL_FORMAT:
                    _log.warning(
                        "journal %s has format %r (expected %d); entries "
                        "ignored",
                        self.path,
                        record.get("format"),
                        JOURNAL_FORMAT,
                    )
                current = record == self._header
            elif kind == "unit":
                if not current:
                    # Keys embed the code token, so this unit can never
                    # match a current key.
                    stale.add(record.get("key"))
                    continue
                try:
                    summary = pickle.loads(
                        base64.b64decode(record["summary"])
                    )
                except Exception:
                    self.torn_lines += 1
                    continue
                self._entries[record["key"]] = summary
            # "failure" records are informational only: the unit is
            # not done, so a resume will retry it.
        self.stale_entries = len(stale)
        if stale:
            # Say so rather than silently re-simulating everything.
            _log.warning(
                "journal %s was written by a different code version or "
                "format; its %d completed unit(s) will not match and will "
                "re-run",
                self.path,
                self.stale_entries,
            )
        return current

    def key(self, config: Any) -> str:
        """Digest for ``config`` — identical to the result cache's key."""
        return config_digest(config, self._code_token)

    def get(self, key: str) -> Optional[Any]:
        """The journaled summary for ``key``, or ``None``."""
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    # -- writing -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, key: str, summary: Any) -> None:
        """Journal one completed unit, durably, right now."""
        self._entries[key] = summary
        self._append(
            {
                "kind": "unit",
                "key": key,
                "summary": base64.b64encode(
                    pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
            }
        )

    def record_failure(self, failure: UnitFailure) -> None:
        """Journal a quarantined unit (informational; resume retries it)."""
        self._append(
            {
                "kind": "failure",
                "key": failure.key,
                "fault": failure.kind,
                "seed": failure.seed,
                "scheme": failure.scheme,
                "attempts": failure.attempts,
                "message": failure.message,
            }
        )

    def close(self) -> None:
        """Close the append handle (reads keep working)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
