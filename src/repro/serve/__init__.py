"""repro.serve: simulation-as-a-service.

The sweep orchestrator (:mod:`repro.orch`) runs one plan and exits;
this package keeps its three assets -- the worker pool, the
content-addressed result store, and the JSONL journal -- alive behind
a small daemon, so many clients share one warm backend:

* :mod:`scheduler` -- the asyncio scheduler owning pool + cache +
  journal: priority queue, per-client quotas, cross-client dedup,
  journal recovery (:class:`Scheduler`, :class:`ServeConfig`);
* :mod:`daemon` -- the NDJSON-over-TCP front end
  (:class:`Daemon`, :class:`BackgroundDaemon`, :func:`run_daemon`);
* :mod:`client` -- the synchronous :class:`Client` (and the
  :class:`AsyncClient` transport) the ``repro sweep``/``repro
  submit`` thin clients use;
* :mod:`protocol` -- the wire format and the machine-checkable event
  schema (:func:`validate_event`);
* :mod:`quotas` -- per-client identity, priority and in-flight budget.

``repro serve`` starts the daemon; ``repro sweep --server HOST:PORT``
and ``repro submit`` talk to it.  ``Client`` and ``ServeConfig`` are
re-exported from the package root.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".client": ["AsyncClient", "Client", "ConnectionLost", "ServerError"],
    ".daemon": ["BackgroundDaemon", "Daemon", "run_daemon"],
    ".protocol": ["EVENT_SCHEMA", "PROTOCOL_VERSION", "parse_address",
                  "validate_event", "validate_events"],
    ".quotas": ["ClientState", "QuotaError", "QuotaPolicy"],
    ".scheduler": ["Scheduler", "ServeConfig"],
})
