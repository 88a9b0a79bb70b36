"""repro.orch: the parallel sweep orchestrator.

The paper's evaluation is a grid of independent simulations (kernels x
feature rungs x topologies x machine scales).  This package turns that
grid into a first-class subsystem:

* :mod:`job` -- the declarative :class:`Job` spec each experiment
  harness enumerates, plus the worker-side executor;
* :mod:`fingerprint` -- a content hash of the simulator's source, so
  cached results are invalidated when the model changes;
* :mod:`cache` -- the content-addressed result store under
  ``.repro-cache/`` (JSON artifacts keyed by job spec + arch config +
  code fingerprint);
* :mod:`journal` -- the JSONL run journal (per-job wall time, cycles,
  worker id, retries, outcome);
* :mod:`graph` -- sweeps (jobs + a pure reduce step) and the deduplicated
  execution plan across several sweeps;
* :mod:`runner` -- the one job runner: forked workers, per-attempt
  deadline, retry, crash replacement and the ``procs`` slot ledger.
  :func:`run_jobs` drives it for a sweep (cache, journal, Ctrl-C,
  progress/ETA); the long-lived :mod:`repro.serve` scheduler drives the
  same runner from its event loop.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".cache": ["ResultStore", "cache_key", "default_cache_dir"],
    ".fingerprint": ["code_fingerprint"],
    ".graph": ["Plan", "Sweep", "build_plan", "reduce_all"],
    ".job": ["Job", "execute", "jsonable"],
    ".journal": ["RunJournal", "read_journal"],
    ".runner": ["WORKER_BUDGET_ENV", "JobOutcome", "collect_payloads",
                "execute_serial", "run_jobs"],
})
