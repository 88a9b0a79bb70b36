"""repro: an architectural reproduction of the HammerBlade RISC-V manycore.

Public API (see ``docs/API.md`` for the full surface and the migration
table from the legacy ``run_on_cell`` entry points):

* :class:`Session` / :func:`run` -- build a machine, launch kernels,
  collect :class:`RunResult`\\ s, optionally with tracing;
* :class:`MachineConfig` / :class:`FeatureSet` and the Table II presets
  (``HB_16x8`` ..., ``TABLE_II``, ``small_config``) -- machine configs;
* :class:`Trace` / :class:`TraceConfig` -- the observability layer
  (cycle timelines, metrics registry, Perfetto export);
* :class:`SanitizeConfig` -- knobs for ``Session(sanitize=...)``, the
  PGAS data-race and synchronization checker;
* :class:`AuditConfig` -- knobs for ``Session(audit=...)``, the
  timing-model invariant and differential-validation checker;
* :class:`Client` / :class:`ServeConfig` -- the simulation service:
  talk to (or configure) a ``repro serve`` scheduler daemon that
  shares one warm worker pool, result cache and journal across
  clients (see :mod:`repro.serve`);
* ``KERNELS`` -- the ten-benchmark parallel suite (Table I).

Quickstart::

    import repro
    from repro.kernels import sgemm

    result = repro.run(repro.HB_16x8, sgemm.KERNEL, sgemm.make_args(n=32))
    print(result.cycles, result.core_utilization)

Deeper layers stay importable for model work: :mod:`repro.arch`
(geometry/timings), :mod:`repro.runtime` (machines, Cells),
:mod:`repro.isa` (kernel IR), :mod:`repro.workloads` (inputs),
:mod:`repro.experiments` (paper figures), :mod:`repro.orch` (sweeps).

Importing this package loads none of them: every name above resolves on
first use (``docs/API.md``, "Import tiers"), so planning or re-reading a
cached sweep never pays for the simulator.
"""

#: The single source of truth: ``pyproject.toml`` reads it from here.
__version__ = "0.1.0"

from ._lazy import lazy

__getattr__, __dir__, _names = lazy(__name__, {
    ".session": ["Session", "run"],
    ".runtime.result": ["RunResult"],
    ".serve.client": ["Client"],
    ".serve.scheduler": ["ServeConfig"],
    ".arch.config": ["MachineConfig", "FeatureSet", "HB_16x8", "HB_16x16",
                    "HB_32x8", "HB_2x16x8", "TABLE_II", "ALL_FEATURES",
                    "small_config"],
    ".trace.tracer": ["Trace", "TraceConfig"],
    ".sanitize.checker": ["SanitizeConfig"],
    ".audit.checker": ["AuditConfig"],
    ".pim.config": ["PimConfig"],
    ".kernels.registry": [("KERNELS", "SUITE")],
})
__all__ = ["__version__", *_names]
