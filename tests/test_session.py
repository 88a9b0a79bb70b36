"""The Session facade: parity with the legacy path, multi-launch, tracing."""

import warnings

import pytest

import repro
from repro.arch.config import small_config
from repro.kernels import registry
from repro.session import Session, run


def _tiny(name):
    bench = registry.SUITE[name]
    return bench.kernel, registry.fast_args(name)


class TestOneShotRun:
    def test_matches_legacy_run_on_cell(self, tiny_config):
        kernel, args = _tiny("AES")
        new = run(tiny_config, kernel, args)
        kernel, args = _tiny("AES")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            from repro.runtime.host import run_on_cell

            old = run_on_cell(tiny_config, kernel, args)
        assert new.cycles == old.cycles
        assert new.instructions == old.instructions
        assert new.core_breakdown == old.core_breakdown

    def test_requires_kernel(self, tiny_config):
        with pytest.raises(TypeError):
            run(tiny_config)

    def test_defaults_to_hb16x8(self):
        kernel, args = _tiny("AES")
        result = run(kernel=kernel, args=args)
        assert result.config_name == "HB-16x8"

    def test_exported_at_top_level(self, tiny_config):
        kernel, args = _tiny("AES")
        result = repro.run(tiny_config, kernel, args)
        assert result.cycles > 0


class TestSession:
    def test_launch_then_run(self, tiny_config):
        session = Session(tiny_config)
        kernel, args = _tiny("PR")
        handle = session.launch(kernel, args)
        batch = session.run()
        assert len(batch) == 1
        assert batch[0].cycles == handle.cycles()
        assert session.results == batch

    def test_run_without_launch_raises(self, tiny_config):
        with pytest.raises(RuntimeError):
            Session(tiny_config).run()

    def test_multi_cell_launches(self):
        config = small_config(2, 2)
        config = config.with_geometry(cells_x=2)
        session = Session(config)
        kernel, args = _tiny("AES")
        session.launch(kernel, args, cell=(0, 0))
        kernel, args = _tiny("AES")
        session.launch(kernel, args, cell=(1, 0))
        batch = session.run()
        assert len(batch) == 2
        assert all(r.cycles > 0 for r in batch)

    def test_setup_return_replaces_args(self, tiny_config):
        session = Session(tiny_config)
        kernel, args = _tiny("AES")
        seen = {}

        def setup(machine):
            seen["machine"] = machine
            return args

        session.launch(kernel, None, setup=setup)
        result, = session.run()
        assert seen["machine"] is session.machine
        assert result.cycles > 0

    def test_keep_machine(self, tiny_config):
        session = Session(tiny_config)
        kernel, args = _tiny("AES")
        session.launch(kernel, args)
        result, = session.run(keep_machine=True)
        assert result.machine is session.machine

    def test_trace_flag_attaches_tracer(self, tiny_config):
        session = Session(tiny_config, trace=True)
        assert session.trace is not None
        assert session.sim.tracer is session.trace
        kernel, args = _tiny("AES")
        session.launch(kernel, args)
        result, = session.run()
        assert result.trace is not session.trace
        assert result.trace.events == session.trace.events

    def test_untraced_session_has_no_tracer(self, tiny_config):
        session = Session(tiny_config)
        assert session.trace is None
        assert session.sim.tracer is None


class TestLegacyShims:
    def test_run_on_cell_warns_and_matches(self, tiny_config):
        from repro.runtime.host import run_on_cell

        kernel, args = _tiny("AES")
        with pytest.warns(DeprecationWarning, match="run_on_cell"):
            old = run_on_cell(tiny_config, kernel, args)
        kernel, args = _tiny("AES")
        assert old.cycles == run(tiny_config, kernel, args).cycles

    def test_run_on_cells_warns(self, tiny_config):
        from repro.runtime.host import run_on_cells

        kernel, args = _tiny("AES")
        with pytest.warns(DeprecationWarning, match="run_on_cells"):
            results = run_on_cells(tiny_config, [((0, 0), kernel, args)])
        assert len(results) == 1

    def test_warning_points_at_callers_file(self, tiny_config):
        # stacklevel=2: the warning must name THIS file (the code that
        # needs migrating), not host.py or some helper inside it.
        from repro.runtime.host import run_on_cell

        kernel, args = _tiny("AES")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_on_cell(tiny_config, kernel, args)
        hits = [w for w in caught
                if issubclass(w.category, DeprecationWarning)
                and "run_on_cell" in str(w.message)]
        assert hits
        assert hits[0].filename == __file__

    def test_collect_result_warns(self, tiny_config):
        from repro.runtime.host import collect_result

        session = Session(tiny_config)
        kernel, args = _tiny("AES")
        handle = session.launch(kernel, args)
        session.machine.run_to_completion([handle])
        with pytest.warns(DeprecationWarning, match="collect_result"):
            result = collect_result(session.machine, handle,
                                    handle.cycles(), "AES")
        assert result.cycles == handle.cycles()
