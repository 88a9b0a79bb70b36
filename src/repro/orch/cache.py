"""Content-addressed result store under ``.repro-cache/``.

Each artifact is one JSON file named by the sha256 of the job spec
(run-function path + params + serialized machine config + seed) plus the
code fingerprint.  Identical sweeps are therefore pure cache hits, a
changed arch config invalidates exactly the jobs that use it, and a
changed simulator invalidates everything -- the three rules
``docs/MODEL.md`` documents.

The store location is resolved in exactly one place,
:func:`default_cache_dir`: the ``REPRO_CACHE_DIR`` environment variable
when set, else ``.repro-cache``.  Every consumer (the sweep CLI, the
serve daemon, ad-hoc :class:`ResultStore` construction) goes through it,
so a client and the server it talks to agree on one store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from .job import Job, canonical_json

DEFAULT_ROOT = ".repro-cache"

#: Environment override for the store location, honored by every
#: ``--cache-dir`` default and by the serve daemon.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bumped when the artifact layout changes incompatibly.
STORE_FORMAT = 1


def default_cache_dir() -> str:
    """The store root: ``$REPRO_CACHE_DIR`` when set, else ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_ROOT


def cache_key(job: Job, fingerprint: str) -> str:
    """Stable content address of one job's result."""
    spec = dict(job.spec())
    spec["fingerprint"] = fingerprint
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


class ResultStore:
    """A directory of ``<aa>/<rest-of-key>.json`` result artifacts."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` on miss/corruption.

        A truncated, hand-edited or foreign artifact -- anything that is
        not a JSON object carrying a ``"payload"`` -- is treated as a
        miss (and removed) rather than an error: the sweep can always
        recompute.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            record = None
        if not isinstance(record, dict) or "payload" not in record:
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        if record.get("format") != STORE_FORMAT:
            return None
        return record

    def put(self, key: str, job: Job, payload: Any,
            meta: Optional[Dict[str, Any]] = None) -> str:
        """Write one artifact atomically; returns its path."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {
            "format": STORE_FORMAT,
            "key": key,
            "job": {"experiment": job.experiment, "key": job.key,
                    **job.spec()},
            "meta": dict(meta or {}),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # dumps, not dump: the C encoder (see RunJournal._write).
                fh.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)  # atomic: readers never see a torn file
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path

    def stats(self) -> Dict[str, int]:
        """Artifact count and total bytes (for ``repro sweep`` reporting)."""
        count = size = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for fname in filenames:
                if fname.endswith(".json"):
                    count += 1
                    try:
                        size += os.path.getsize(os.path.join(dirpath, fname))
                    except OSError:
                        pass
        return {"artifacts": count, "bytes": size}
