"""The public surface: __all__ <-> docs sync, wire format, builders."""

import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arch.config import HB_16x8, HB_2x16x8
from repro.runtime.result import SCHEMA_VERSION, RunResult

DOCS = Path(__file__).resolve().parent.parent / "docs" / "API.md"


class TestSurfaceGuard:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_docs_match_all(self):
        """docs/API.md's bullet list is the contract; keep it in sync."""
        text = DOCS.read_text()
        section = text.split("## Exported names")[1].split("\n## ")[0]
        documented = re.findall(r"^- `([A-Za-z_][A-Za-z0-9_]*)`",
                                section, re.MULTILINE)
        assert sorted(documented) == sorted(repro.__all__)

    def test_kernels_registry_exported(self):
        assert "Jacobi" in repro.KERNELS
        assert "AES" in repro.KERNELS

    def test_no_deprecation_from_public_imports(self):
        """Importing the new surface and the migrated first-party
        modules must never warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.cli  # noqa: F401
            import repro.experiments.common  # noqa: F401
            import repro.profile  # noqa: F401

            repro.Session(repro.small_config(2, 2))


_fraction = st.floats(min_value=0, max_value=1, allow_nan=False)
_count = st.floats(min_value=0, max_value=1e12, allow_nan=False,
                   allow_infinity=False)


def _results():
    return st.builds(
        RunResult,
        config_name=st.sampled_from(["HB-16x8", "HB-small"]),
        kernel_name=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=12),
        cycles=_count,
        num_tiles=st.integers(min_value=1, max_value=4096),
        instructions=_count,
        int_instructions=_count,
        fp_instructions=_count,
        core_breakdown=st.dictionaries(
            st.sampled_from(["exec_int", "exec_fp", "stall_idle", "other"]),
            _fraction, max_size=4),
        core_utilization=_fraction,
        hbm=st.fixed_dictionaries(
            {k: _fraction for k in ("read", "write", "busy", "idle")}),
        cache_hit_rate=st.one_of(st.none(), _fraction),
        network=st.dictionaries(
            st.sampled_from(["packets", "flits", "hops", "stall_cycles"]),
            _count, max_size=4),
        machine=st.none(),
        extra=st.just({}),
    )


class TestRunResultWireFormat:
    @settings(max_examples=60, deadline=None)
    @given(_results())
    def test_round_trip(self, result):
        payload = result.to_dict()
        assert payload["schema"] == SCHEMA_VERSION
        back = RunResult.from_dict(payload)
        assert back.to_dict() == payload

    def test_provenance_round_trips(self):
        from repro.kernels.registry import fast_args
        from repro.runtime.result import PROVENANCE_FIELDS

        result = repro.run(repro.small_config(2, 2),
                           repro.KERNELS["AES"].kernel, fast_args("AES"))
        assert result.provenance == {}  # local runs carry none
        stamped = {name: f"x-{name}" for name in PROVENANCE_FIELDS}
        result.provenance.update(stamped)
        back = RunResult.from_dict(result.to_dict())
        assert back.provenance == stamped

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RunResult.from_dict({"schema": SCHEMA_VERSION + 1})

    def test_machine_and_extra_do_not_serialize(self):
        from repro.kernels.registry import fast_args

        result = repro.run(repro.small_config(2, 2),
                           repro.KERNELS["AES"].kernel, fast_args("AES"),
                           keep_machine=True, trace=True)
        payload = result.to_dict()
        assert "machine" not in payload and "extra" not in payload
        assert "trace" not in payload


class TestConfigBuilders:
    def test_with_features_flags(self):
        cfg = HB_16x8.with_features(hw_barrier=False)
        assert not cfg.features.hw_barrier
        assert cfg.features.ruche_network  # others untouched
        assert HB_16x8.features.hw_barrier  # original frozen

    def test_with_features_rejects_both_forms(self):
        with pytest.raises(TypeError):
            HB_16x8.with_features(repro.ALL_FEATURES, hw_barrier=False)

    def test_with_cache_fields(self):
        cfg = HB_16x8.with_cache(sets=2, mshr_entries=1)
        assert cfg.timings.cache.sets == 2
        assert cfg.timings.cache.mshr_entries == 1
        assert cfg.timings.cache.ways == HB_16x8.timings.cache.ways

    def test_with_timings_dict_overrides(self):
        cfg = HB_16x8.with_timings(core={"scoreboard_entries": 4},
                                   noc={"ruche_factor": 2})
        assert cfg.timings.core.scoreboard_entries == 4
        assert cfg.timings.noc.ruche_factor == 2
        assert cfg.timings.hbm == HB_16x8.timings.hbm

    def test_with_timings_whole_bundle(self):
        cfg = HB_16x8.with_timings(HB_2x16x8.timings)
        assert cfg.timings == HB_2x16x8.timings
        with pytest.raises(TypeError):
            HB_16x8.with_timings(HB_2x16x8.timings, core={"latency": 1})

    def test_with_hbm(self):
        cfg = HB_16x8.with_hbm(scale=0.5, pseudo_channels_per_cell=2)
        assert cfg.hbm_scale == 0.5
        assert cfg.pseudo_channels_per_cell == 2
        cfg = HB_16x8.with_hbm(t_cl=20)
        assert cfg.timings.hbm.t_cl == 20

    def test_with_geometry(self):
        cfg = HB_16x8.with_geometry(tiles_x=4, tiles_y=2, cells_x=2)
        assert (cfg.cell.tiles_x, cfg.cell.tiles_y) == (4, 2)
        assert cfg.cells_x == 2

    def test_builders_chain(self):
        cfg = (HB_16x8.with_features(hw_barrier=False)
               .with_cache(sets=4)
               .with_hbm(scale=0.5)
               .with_geometry(tiles_x=4, tiles_y=4))
        assert cfg.num_tiles == 16
        assert cfg.hbm_scale == 0.5

    def test_describe(self):
        text = HB_16x8.describe()
        assert "HB-16x8" in text and "16x8" in text
        assert "hbm x0.5" in HB_16x8.with_hbm(scale=0.5).describe()
        multi = HB_2x16x8.describe()
        assert "2x1 cells" in multi
