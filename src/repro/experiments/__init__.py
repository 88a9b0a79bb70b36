"""Experiment harnesses: one module per paper figure/table.

Each module exposes the orchestrator triplet -- ``jobs(size=...)``
(declarative :class:`repro.orch.Job` specs), a pure ``reduce(payloads)``
and ``render(out)`` that prints the reproduced figure as text -- plus
``run(...) -> dict`` (reduce over a serial in-process execution).  The
CLI is the one way to print a figure: in-process::

    repro fig10 --size small

which is ``render(reduce(execute_serial(jobs(size))))``, or through the
worker pool / result cache::

    repro sweep fig10 --jobs 4 --size small
"""

from importlib import import_module

from .._lazy import lazy


class _Harnesses(dict):
    """``name -> harness module``; a value still naming its module is
    imported on first lookup, so listing the sweepable experiments (or
    sweeping one of them) never imports the rest."""

    def __getitem__(self, name):
        value = super().__getitem__(name)
        if isinstance(value, str):
            value = self[name] = import_module(value, __name__)
        return value

    def get(self, name, default=None):
        return self[name] if name in self else default

    def values(self):
        return [self[name] for name in self]

    def items(self):
        return [(name, self[name]) for name in self]


#: Sweepable harnesses by CLI name: every module with the
#: jobs()/reduce()/render() triplet, in ``repro all`` order.
HARNESSES = _Harnesses({
    "tables": ".tables",
    "fig3": ".fig03_bisection_transfer",
    "fig4": ".fig04_barrier",
    "fig10": ".fig10_incremental",
    "fig11": ".fig11_utilization",
    "fig12": ".fig12_tilegroups",
    "fig13": ".fig13_energy",
    "fig14": ".fig14_noc_bisection",
    "fig15": ".fig15_doubling",
    "fig16": ".fig16_vs_hierarchical",
    "ablations": ".ablations",
    "chip": ".chip_scale",
})

__getattr__, __dir__, _modules = lazy(__name__, {
    ".ablations": None,
    ".chip_scale": None,
    ".common": None,
    ".fig03_bisection_transfer": None,
    ".fig04_barrier": None,
    ".fig10_incremental": None,
    ".fig11_utilization": None,
    ".fig12_tilegroups": None,
    ".fig13_energy": None,
    ".fig14_noc_bisection": None,
    ".fig15_doubling": None,
    ".fig16_vs_hierarchical": None,
    ".pim_offload": None,
    ".tables": None,
})
__all__ = ["HARNESSES", *_modules]
