"""Ablations of the model's key design parameters.

Beyond the paper's own feature ladder (Fig 10), these sweeps probe the
quantitative choices the architecture leans on:

* **scoreboard depth** -- the 63-entry remote-request scoreboard is HB's
  cheap MLP substitute; sweeping it shows how much outstanding-request
  capacity memory-bound kernels actually use;
* **MSHR entries** -- the consolidated LLC miss capacity;
* **ruche factor** -- hop distance of the long-range links (3 in HB);
* **cache capacity** -- the per-bank set count.

Each sweep point is one :class:`repro.orch.Job` (key
``"<sweep>/<point>"``), so ``repro sweep ablations`` runs the whole
grid through the worker pool; the ``sweep_*`` functions remain the
direct single-sweep API.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..arch.config import HB_16x8

#: Fig-12-style multi-task SpGEMM input (the miss-heavy workload the
#: mshr/cache_sets sweeps need).  Deliberately size-independent: a
#: smaller working set would stop exercising capacity, and the sweeps'
#: claims (capacity matters, MSHRs matter) must hold in tiny smoke runs
#: too.
_SPGEMM_TASKS = 8
_SPGEMM_SCALE = 0.15

_SEP = "/"


def spgemm_point_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: the multi-task SpGEMM stress point."""
    from ..kernels import spgemm
    from ..session import run as run_kernel

    args = spgemm.make_args(tasks=params["tasks"], scale=params["scale"])
    result = run_kernel(config, spgemm.KERNEL, args,
                        group_shape=tuple(params["group_shape"]))
    return result.to_dict()


def _suite_point(sweep: str, label: object, config, kernel: str,
                 size: str) -> Any:
    from ..arch.serialize import to_dict
    from ..orch import Job

    return Job("ablations", f"{sweep}{_SEP}{label}",
               "repro.experiments.common:suite_job",
               params={"kernel": kernel, "size": size},
               config=to_dict(config))


def _spgemm_point(sweep: str, label: object, config) -> Any:
    from ..arch.serialize import to_dict
    from ..orch import Job

    return Job("ablations", f"{sweep}{_SEP}{label}",
               "repro.experiments.ablations:spgemm_point_job",
               params={"tasks": _SPGEMM_TASKS, "scale": _SPGEMM_SCALE,
                       "group_shape": [4, 4]},
               config=to_dict(config))


def _scoreboard_jobs(depths: Sequence[int], kernel_name: str,
                     size: str) -> List[Any]:
    """More outstanding requests -> more MLP, until bandwidth saturates."""
    out = []
    for depth in depths:
        cfg = HB_16x8.with_timings(core={"scoreboard_entries": depth})
        out.append(_suite_point("scoreboard", depth, cfg, kernel_name, size))
    return out


def _mshr_jobs(entries: Sequence[int]) -> List[Any]:
    """Measured on the miss-heavy Fig 12 workload with a small cache
    (2 sets) so the consolidated MSHR file is actually exercised; at
    full capacity the default workloads hit too often to stress it."""
    out = []
    for n in entries:
        out.append(_spgemm_point(
            "mshr", n, HB_16x8.with_cache(sets=2, mshr_entries=n)))
    return out


def _ruche_jobs(factors: Sequence[int], kernel_name: str,
                size: str) -> List[Any]:
    """0 disables the long links (plain mesh); HB ships factor 3."""
    out = []
    for factor in factors:
        if factor == 0:
            cfg = HB_16x8.with_features(ruche_network=False)
        else:
            cfg = HB_16x8.with_timings(noc={"ruche_factor": factor})
        out.append(_suite_point("ruche_factor", factor, cfg, kernel_name,
                                size))
    return out


def _cache_sets_jobs(sets: Sequence[int]) -> List[Any]:
    """Uses the Fig 12 multi-task SpGEMM (8 private activation matrices)
    whose resident working set actually exercises capacity."""
    out = []
    for n in sets:
        out.append(_spgemm_point("cache_sets", n,
                                 HB_16x8.with_cache(sets=n)))
    return out


#: sweep name -> (jobs factory at default points, row-label field).
_SWEEP_FACTORIES = {
    "scoreboard": lambda size: _scoreboard_jobs((1, 4, 16, 63), "PR", size),
    "mshr": lambda size: _mshr_jobs((1, 4, 16, 32)),
    "ruche_factor": lambda size: _ruche_jobs((0, 2, 3, 4), "FFT", size),
    "cache_sets": lambda size: _cache_sets_jobs((2, 4, 16, 64)),
}

_POINT_FIELD = {
    "scoreboard": "scoreboard",
    "mshr": "mshr_entries",
    "ruche_factor": "ruche_factor",
    "cache_sets": "sets",
}


def jobs(size: str = "small",
         which: Optional[Sequence[str]] = None) -> List[Any]:
    names = list(which) if which else list(_SWEEP_FACTORIES)
    out: List[Any] = []
    for name in names:
        out.extend(_SWEEP_FACTORIES[name](size))
    return out


def _with_speedups(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    base = rows[0]["cycles"]
    for row in rows:
        row["speedup"] = base / row["cycles"]
    return rows


def _rows_for(sweep: str, payloads: Mapping[str, Dict[str, Any]]
              ) -> List[Dict[str, Any]]:
    rows = []
    for key, payload in payloads.items():
        name, _, label = key.partition(_SEP)
        if name != sweep:
            continue
        row: Dict[str, Any] = {_POINT_FIELD[sweep]: int(label)}
        if sweep == "cache_sets":
            row["cell_cache_kb"] = (HB_16x8.cell.num_banks * int(label)
                                    * HB_16x8.timings.cache.ways
                                    * HB_16x8.timings.cache.block_bytes
                                    ) // 1024
        row["cycles"] = payload["cycles"]
        rows.append(row)
    return _with_speedups(rows)


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    sweeps = []
    for key in payloads:
        name = key.partition(_SEP)[0]
        if name not in sweeps:
            sweeps.append(name)
    return {name: _rows_for(name, payloads) for name in sweeps}


def _run_points(jobs_list: List[Any], sweep: str) -> List[Dict[str, Any]]:
    from ..orch import execute_serial

    return _rows_for(sweep, execute_serial(jobs_list))


def sweep_scoreboard(depths: Sequence[int] = (1, 4, 16, 63),
                     kernel_name: str = "PR",
                     size: str = "small") -> List[Dict[str, Any]]:
    return _run_points(_scoreboard_jobs(depths, kernel_name, size),
                       "scoreboard")


def sweep_mshr(entries: Sequence[int] = (1, 4, 16, 32),
               size: str = "small") -> List[Dict[str, Any]]:
    del size  # the stress workload is size-independent (see _SPGEMM_SCALE)
    return _run_points(_mshr_jobs(entries), "mshr")


def sweep_ruche_factor(factors: Sequence[int] = (0, 2, 3, 4),
                       kernel_name: str = "FFT",
                       size: str = "small") -> List[Dict[str, Any]]:
    return _run_points(_ruche_jobs(factors, kernel_name, size),
                       "ruche_factor")


def sweep_cache_sets(sets: Sequence[int] = (2, 4, 16, 64),
                     size: str = "small") -> List[Dict[str, Any]]:
    del size  # the stress workload is size-independent (see _SPGEMM_SCALE)
    return _run_points(_cache_sets_jobs(sets), "cache_sets")


def run(size: str = "small",
        which: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size, which=which)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    for name, rows in out.items():
        print(f"\n== ablation: {name} ==")
        headers = list(rows[0].keys())
        print(format_table(headers, [[r[h] for h in headers] for r in rows]))


def main(size=None) -> None:
    render(run(size=size or "small"))


if __name__ == "__main__":
    main()
