"""repro.audit: invariant checking and differential validation.

The timing model's contention effects -- row-buffer locality, bank
parallelism, non-blocking cache banks, NoC congestion -- only support
the paper's conclusions if they are modelled *correctly*.  This package
cross-checks the optimized implementations against first principles:
debug-mode invariants observed on the probe bus (:mod:`repro.probe`),
plus naive reference models (an O(ways)-scan LRU, an explicit
opened-row DRAM tracker, hop-count latency bounds) shadowing the fast
paths live.

Usage (the Session flag is the normal entry point)::

    import repro

    session = repro.Session(repro.HB_16x8, audit=True)
    session.launch(kernel, args)
    session.run()
    print(session.auditor.summary())
    assert session.auditor.clean

or, from a shell::

    python -m repro audit Jacobi --size small
    python -m repro audit all --size small --json

See ``docs/MODEL.md`` ("Model invariants & validation") for the full
rule list and ``docs/API.md`` for the report schema.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".checker": ["AuditConfig", "Auditor", "Violation"],
    ".reference": ["RefLruCache", "RefLruSet", "RefRowState",
                   "hbm_min_latency", "hbm_serialization_floor", "min_hops",
                   "noc_store_and_forward_floor"],
    ".report": ["audit_report", "format_report"],
})
