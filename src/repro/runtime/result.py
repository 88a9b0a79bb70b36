"""The result of one kernel execution, with a versioned wire format.

``RunResult.to_dict()`` is the payload the orchestrator caches and the
run journal records; it carries ``"schema": 2`` so cached payloads are
self-describing, and :meth:`RunResult.from_dict` round-trips them back
into typed results (rejecting unknown schema versions with a clear
error instead of silently misreading fields).

Schema history:

* **1** -- metrics only (no longer read).
* **2** -- adds ``"provenance"``: where the payload came from when it
  was served by the :mod:`repro.serve` scheduler daemon (job id, cache
  hit/miss/dedup, code fingerprint, server run id).  Locally-built
  results carry an empty provenance dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..core import stall as st

if TYPE_CHECKING:
    from .cell import LaunchHandle
    from .machine import Machine

#: Version of the ``to_dict`` wire format.  Bump when fields change
#: incompatibly; ``from_dict`` refuses payloads from other versions.
SCHEMA_VERSION = 2

#: The provenance keys the serve scheduler stamps on delivered results
#: (``provenance`` is free-form; these are the documented ones).
PROVENANCE_FIELDS = ("job", "cache_key", "cache", "fingerprint", "run_id")


@dataclass
class RunResult:
    """Everything an experiment needs from one kernel execution."""

    config_name: str
    kernel_name: str
    cycles: float
    num_tiles: int
    instructions: float
    int_instructions: float
    fp_instructions: float
    core_breakdown: Dict[str, float]  # fractions of tile-cycles per category
    core_utilization: float  # fraction of tile-cycles issuing instructions
    hbm: Dict[str, float]  # read/write/busy/idle fractions (first channel)
    cache_hit_rate: Optional[float]
    network: Dict[str, float]  # request-network counters
    machine: Optional[Any] = None  # kept when the caller asks for it
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Where this payload came from when it was served by the scheduler
    #: daemon (see :data:`PROVENANCE_FIELDS`); empty for local runs.
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Instructions per cycle across the whole launch."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def trace(self) -> Optional[Any]:
        """The :class:`repro.trace.Trace` of a traced run, if any."""
        return self.extra.get("trace")

    @property
    def sanitize(self) -> Optional[Any]:
        """The :class:`repro.sanitize.Sanitizer` of a sanitized run."""
        return self.extra.get("sanitize")

    @property
    def audit(self) -> Optional[Any]:
        """The :class:`repro.audit.Auditor` of an audited run, if any."""
        return self.extra.get("audit")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able snapshot of the result (the sweep-job payload).

        ``machine`` and ``extra`` are deliberately dropped: the former
        is live simulator state, the latter caller-private.
        ``provenance`` round-trips (empty for locally-built results).
        """
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config_name,
            "kernel": self.kernel_name,
            "cycles": float(self.cycles),
            "num_tiles": int(self.num_tiles),
            "instructions": float(self.instructions),
            "int_instructions": float(self.int_instructions),
            "fp_instructions": float(self.fp_instructions),
            "core_breakdown": {k: float(v)
                               for k, v in self.core_breakdown.items()},
            "core_utilization": float(self.core_utilization),
            "hbm": {k: float(v) for k, v in self.hbm.items()},
            "cache_hit_rate": (None if self.cache_hit_rate is None
                               else float(self.cache_hit_rate)),
            "network": {k: float(v) for k, v in self.network.items()},
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from a :meth:`to_dict` payload; any other
        schema (or none) is rejected."""
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunResult schema {schema!r}: this build reads "
                f"schema {SCHEMA_VERSION}; re-run the sweep (or clear the "
                "result cache) to regenerate payloads"
            )
        return cls(
            config_name=data["config"],
            kernel_name=data["kernel"],
            cycles=float(data["cycles"]),
            num_tiles=int(data["num_tiles"]),
            instructions=float(data["instructions"]),
            int_instructions=float(data["int_instructions"]),
            fp_instructions=float(data["fp_instructions"]),
            core_breakdown=dict(data["core_breakdown"]),
            core_utilization=float(data["core_utilization"]),
            hbm=dict(data["hbm"]),
            cache_hit_rate=(None if data.get("cache_hit_rate") is None
                            else float(data["cache_hit_rate"])),
            network=dict(data.get("network", {})),
            provenance=dict(data.get("provenance") or {}),
        )


def detached(checker: Any) -> Any:
    """The reader's half of a live checker, for a result to hold.

    A trace, sanitizer or auditor wired into a machine references it
    (hooks, shadows, gauge closures, launch handles).  The detached one
    is a fresh, unbound instance of the same class -- so it has no
    machine and empty working state by construction -- carrying the
    copies its ``_reader_state()`` lists: everything ``report()``,
    ``summary()`` and the documented attributes read.  The live checker
    is untouched and keeps serving the session's next batch.
    """
    view = type(checker)(checker.config)
    vars(view).update(checker._reader_state())
    return view


def collect(machine: Machine, handle: LaunchHandle, cycles: float,
            kernel_name: str, *, keep_machine: bool = False) -> RunResult:
    """Aggregate counters from a finished launch into a :class:`RunResult`."""
    cores = handle.cores
    denom = cycles * len(cores)
    sums: Dict[str, float] = {cat: 0.0 for cat in st.ALL_CATEGORIES}
    for core, before in zip(cores, handle.baseline):
        for cat in st.ALL_CATEGORIES:
            sums[cat] += core.counters.get(cat) - before.get(cat, 0.0)
        # Early finishers idle until the slowest tile completes.
        tail = (handle.launch_time + cycles) - core.finish_time
        if tail > 0:
            sums[st.STALL_IDLE] += tail
    accounted = sum(sums.values())
    other = max(0.0, denom - accounted)
    breakdown = {cat: v / denom for cat, v in sums.items() if v > 0}
    if other > 0:
        breakdown["other"] = other / denom
    int_instrs = sums[st.EXEC_INT]
    fp_instrs = sums[st.EXEC_FP]
    cell_xy = handle.cell.cell_xy
    hbm = machine.memsys.hbm[cell_xy].utilization(cycles)
    return RunResult(
        config_name=machine.config.name,
        kernel_name=kernel_name,
        cycles=cycles,
        num_tiles=len(cores),
        instructions=int_instrs + fp_instrs,
        int_instructions=int_instrs,
        fp_instructions=fp_instrs,
        core_breakdown=breakdown,
        core_utilization=(int_instrs + fp_instrs) / denom if denom else 0.0,
        hbm=hbm,
        cache_hit_rate=machine.memsys.cache_hit_rate(cell_xy),
        network=machine.memsys.req_net.counters.as_dict(),
        machine=machine if keep_machine else None,
    )
