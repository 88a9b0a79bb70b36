"""Shared plumbing for the per-figure experiment harnesses.

Every harness takes a ``size`` knob:

* ``"tiny"``  -- seconds-scale runs for unit tests (small machines);
* ``"small"`` -- the benchmark default: full 16x8 Cells, reduced inputs;
* ``"full"``  -- the per-kernel default input sizes.

Sizes change absolute cycle counts, not the comparative shapes the paper
reports (who wins, by roughly what factor) -- which is what EXPERIMENTS.md
records against the paper's numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Tuple

from ..perf.counters import geomean

if TYPE_CHECKING:
    from ..runtime.result import RunResult

SIZES = ("tiny", "small", "full")

#: The keys of :data:`repro.kernels.registry.SUITE`, in its order.  The
#: harnesses' ``jobs()`` enumerate kernels by name from here, so planning
#: a sweep imports no kernel (docs/API.md, "Import tiers"); everything
#: that *runs* one imports the registry where it runs.
SUITE_KERNELS = ("AES", "BS", "SW", "SGEMM", "FFT", "Jacobi", "SpGEMM",
                 "PR", "BFS", "BH")


def suite_args(name: str, size: str = "small", **overrides: Any) -> Dict[str, Any]:
    """Fresh launch args for a suite kernel at the requested size.

    Args must be rebuilt per run: kernels with functional shared state
    (BFS) mutate them.
    """
    from ..kernels import (aes, barneshut, bfs, blackscholes, fft, jacobi,
                           pagerank, registry, sgemm, smithwaterman, spgemm)

    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    if name not in registry.SUITE:
        raise ValueError(
            f"unknown suite kernel {name!r}; one of {sorted(registry.SUITE)}")
    if size == "tiny":
        return registry.fast_args(name)
    small: Dict[str, Callable[[], Dict[str, Any]]] = {
        "AES": lambda: aes.make_args(blocks_per_tile=6, **overrides),
        "BS": lambda: blackscholes.make_args(options_per_tile=8, **overrides),
        "SW": lambda: smithwaterman.make_args(query_len=12, ref_len=16,
                                              **overrides),
        "SGEMM": lambda: sgemm.make_args(n=56, **overrides),
        "FFT": lambda: fft.make_args(n=1024, **overrides),
        "Jacobi": lambda: jacobi.make_args(z_depth=32, iters=1, **overrides),
        "SpGEMM": lambda: spgemm.make_args(scale=0.15, **overrides),
        "PR": lambda: pagerank.make_args(scale=0.12, iters=1, **overrides),
        "BFS": lambda: bfs.make_args(width=16, **overrides),
        "BH": lambda: barneshut.make_args(num_bodies=64, **overrides),
    }
    if size == "small":
        return small[name]()
    return registry.SUITE[name].make_args(**overrides)


def run_suite(config, size: str = "small",
              kernels: Optional[Iterable[str]] = None,
              group_shape: Optional[Tuple[int, int]] = None,
              **run_kwargs: Any) -> Dict[str, RunResult]:
    """Run (a subset of) the suite on one config; returns per-kernel results."""
    from ..kernels import registry
    from ..session import run

    names = list(kernels) if kernels is not None else list(SUITE_KERNELS)
    out: Dict[str, RunResult] = {}
    for name in names:
        bench = registry.SUITE[name]
        args = suite_args(name, size)
        out[name] = run(config, bench.kernel, args,
                        group_shape=group_shape, **run_kwargs)
    return out


def geomean_speedup(baseline: Dict[str, RunResult],
                    variant: Dict[str, RunResult]) -> float:
    """Geometric-mean speedup of a variant over a baseline, kernelwise."""
    ratios = [baseline[k].cycles / variant[k].cycles
              for k in baseline if k in variant]
    return geomean(ratios)


# ---------------------------------------------------------------------------
# Orchestrator plumbing shared by the harnesses (see repro.orch).

def suite_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one suite kernel on one machine.

    ``params``: ``kernel`` (suite name), ``size``, optional
    ``group_shape`` ``[w, h]``.  Returns ``RunResult.to_dict()``.
    """
    from ..kernels import registry
    from ..session import run

    name = params["kernel"]
    shape = params.get("group_shape")
    result = run(config, registry.SUITE[name].kernel,
                 suite_args(name, params.get("size", "small")),
                 group_shape=tuple(shape) if shape else None)
    return result.to_dict()


def suite_jobs(experiment: str, config, size: str = "small",
               kernels: Optional[Iterable[str]] = None,
               key_prefix: str = "",
               group_shape: Optional[Tuple[int, int]] = None) -> list:
    """Declarative :class:`repro.orch.Job` specs for a suite sweep."""
    from ..arch.serialize import to_dict
    from ..orch import Job

    names = list(kernels) if kernels is not None else list(SUITE_KERNELS)
    config_dict = to_dict(config)
    jobs = []
    for name in names:
        params: Dict[str, Any] = {"kernel": name, "size": size}
        if group_shape is not None:
            params["group_shape"] = list(group_shape)
        jobs.append(Job(experiment, key_prefix + name,
                        "repro.experiments.common:suite_job",
                        params=params, config=config_dict))
    return jobs
