"""repro.pdes -- parallel multi-Cell simulation, conservatively synced.

The monolithic machine simulates every Cell in one event queue; this
package shards the chip one-Cell-per-shard and spreads the shards over
parallel processes (the caller's own and forked workers), synchronized
by conservative time windows whose lookahead is the inter-Cell NoC
latency floor.  The layering:

* :mod:`~repro.pdes.channel` -- the cross-Cell message fabric and its
  flat message records (the only coupling between shards);
* :mod:`~repro.pdes.shard` -- one Cell's machine + window stepper,
  built from a picklable :class:`ShardSpec`;
* :mod:`~repro.pdes.coordinator` -- the window-barrier loop and its
  one transport, in which the caller is worker 0 (:func:`run_cells` is
  the entry point);
* :mod:`~repro.pdes.worker` -- the forked shard worker (workers 1..N-1);
* :mod:`~repro.pdes.fixture` -- cross-Cell traffic kernels for tests
  and smoke benches.

The determinism contract: ``run_cells(..., workers=1)`` and
``workers=N`` execute the *same* windowed algorithm over the same
deterministically-ordered message stream, so their results -- cycles,
counters, event counts, functional memory -- are bit-identical
(``CellsResult.fingerprint()`` collapses that to one hash).

Front ends: ``Session(config, cells=(X, Y))`` and ``repro cells`` on
the command line.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    "..noc.analysis": ["intercell_lookahead", "min_intercell_hops"],
    ".channel": ["PdesError", "ShardChannel", "sort_key"],
    ".coordinator": ["WORKER_BUDGET_ENV", "CellsResult", "resolve_workers",
                     "run_cells"],
    ".shard": ["CellShard", "LaunchSpec", "ShardSpec", "StepReport",
               "resolve_kernel"],
})
