"""The JSONL run journal.

One line per event, appended as the sweep runs, so a killed run still
leaves a usable record.  The first line is a ``header`` carrying
provenance (package version, code fingerprint, argv, job count); every
job completion -- cached, computed, failed, timed out, or cancelled --
adds a ``job`` line with wall time, cycles (when the payload reports
them), worker id, and retry count.  ``repro journal <path>`` renders a
post-hoc summary.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
from typing import Any, Dict, IO, Iterator, List, Optional


class RunJournal:
    """Append-only JSONL writer; ``path=None`` journals nowhere.

    ``append=True`` keeps whatever the file already holds -- the serve
    daemon uses it so a journal survives daemon restarts and the
    recovery pass can read what the previous run left behind.
    """

    def __init__(self, path: Optional[str], *, append: bool = False) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = None
        if path:
            # Like the result cache, the journal makes its own directory.
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._fh = open(path, "a" if append else "w")

    def write_header(self, **fields: Any) -> None:
        self._write({
            "event": "header",
            "started": _utcnow(),
            **fields,
        })

    def write_job(self, **fields: Any) -> None:
        self._write({"event": "job", **fields})

    def write_event(self, event: str, **fields: Any) -> None:
        """One record of any event type (the serve daemon's intake:
        client registrations, submissions, dedup hits, quota denials)."""
        self._write({"event": event, **fields})

    def write_footer(self, **fields: Any) -> None:
        self._write({"event": "footer", "finished": _utcnow(), **fields})

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        # dumps, not dump: one pass of the C encoder and one write,
        # where dump walks iterencode in Python (same bytes either way).
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()  # one line per event survives a kill -9

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def read_journal(path: str) -> List[Dict[str, Any]]:
    """All records of a journal file; tolerant of a torn last line.

    A line that is not a JSON object (torn, or valid JSON of another
    type) is skipped with a note on stderr: every reader calls
    ``.get`` on each record.
    """
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                print(f"journal: skipping torn line in {path}",
                      file=sys.stderr)
    return records


def iter_jobs(records: Iterator[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    for rec in records:
        if rec.get("event") == "job":
            yield rec
