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
* :mod:`_pool` -- the multiprocessing scheduler: worker pool, per-job
  timeout, bounded retry, Ctrl-C cancellation, progress/ETA
  (``repro.orch.pool`` remains as a deprecated import shim; the
  long-lived service front end over this pool is :mod:`repro.serve`).
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".cache": ["ResultStore", "cache_key", "default_cache_dir"],
    ".fingerprint": ["code_fingerprint"],
    ".graph": ["Plan", "Sweep", "build_plan", "reduce_all"],
    ".job": ["Job", "execute", "jsonable"],
    ".journal": ["RunJournal", "read_journal"],
    "._pool": ["WORKER_BUDGET_ENV", "JobOutcome", "collect_payloads",
               "execute_serial", "run_jobs"],
})
