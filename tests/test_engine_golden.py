"""Golden determinism: the engine overhaul must not move a single cycle.

Runs two suite kernels twice at tiny size on the full HB-16x8 machine
and asserts the complete observable statistics are bit-identical between
runs, then pins the absolute cycle counts captured from the pre-overhaul
engine.  Any event-ordering change -- a different tie-break, a skipped
queue hop, a resumed-early future -- shows up here as a cycle diff.

``GOLDEN_COUNTS`` widens the pin to all ten suite kernels and adds the
host-side count next to the simulated one: ``sim.events_executed``.  A
change that calls itself count-neutral (a cheaper queue entry, a table
instead of a memo) must leave both integers alone; one that removes
events on purpose re-pins the second column and says so.
"""

import pytest

from repro.arch.config import HB_16x8
from repro.experiments.common import run_suite

#: Absolute cycle counts captured from the original single-heap engine.
#: The two-lane queue, event pooling and fast resume paths must reproduce
#: them exactly -- they reorder host work, never simulated work.
GOLDEN_CYCLES = {"AES": 4743, "PR": 2686}

#: kernel -> (cycles, events executed), tiny inputs on HB-16x8, captured
#: at the commit before the pooled event records, the (addr, tile)
#: translation memo and the per-miss mesh walks were replaced (PR 16).
GOLDEN_COUNTS = {
    "AES": (4743, 13964),
    "BS": (891, 1495),
    "SW": (1964, 1093),
    "SGEMM": (1491, 3793),
    "FFT": (1752, 31706),
    "Jacobi": (2517, 46862),
    "SpGEMM": (6683, 19359),
    "PR": (2686, 27905),
    "BFS": (22941, 42326),
    "BH": (5237, 13788),
}


def _snapshot(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "int_instructions": result.int_instructions,
        "fp_instructions": result.fp_instructions,
        "core_breakdown": result.core_breakdown,
        "cache_hit_rate": result.cache_hit_rate,
        "network": result.network,
        "hbm": result.hbm,
    }


@pytest.fixture(scope="module")
def suite_run():
    return run_suite(HB_16x8, size="tiny", keep_machine=True)


@pytest.fixture(scope="module")
def two_runs(suite_run):
    first = {kernel: suite_run[kernel] for kernel in GOLDEN_CYCLES}
    second = run_suite(HB_16x8, size="tiny", kernels=list(GOLDEN_CYCLES))
    return first, second


@pytest.mark.parametrize("kernel", sorted(GOLDEN_CYCLES))
def test_repeated_runs_bit_identical(two_runs, kernel):
    first, second = two_runs
    assert _snapshot(first[kernel]) == _snapshot(second[kernel])


@pytest.mark.parametrize("kernel", sorted(GOLDEN_CYCLES))
def test_cycles_match_pre_overhaul_engine(two_runs, kernel):
    first, _ = two_runs
    assert first[kernel].cycles == GOLDEN_CYCLES[kernel]


def test_stall_breakdown_fractions_sum_to_one(two_runs):
    first, _ = two_runs
    for result in first.values():
        assert sum(result.core_breakdown.values()) == pytest.approx(1.0)


def test_golden_counts_cover_the_suite():
    from repro.experiments.common import SUITE_KERNELS

    assert set(GOLDEN_COUNTS) == set(SUITE_KERNELS)
    for kernel, cycles in GOLDEN_CYCLES.items():
        assert GOLDEN_COUNTS[kernel][0] == cycles


@pytest.mark.parametrize("kernel", sorted(GOLDEN_COUNTS))
def test_cycles_and_events_executed_pinned(suite_run, kernel):
    result = suite_run[kernel]
    assert (result.cycles, result.machine.sim.events_executed) \
        == GOLDEN_COUNTS[kernel]
