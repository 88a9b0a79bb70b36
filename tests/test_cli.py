"""The command table: listing, dispatch, per-command flags, usage errors,
and ``repro <figure>`` as the harness's own ``render(run())``."""

import pytest

from repro import cli
from repro.cli import COMMANDS, EXPERIMENTS, main


def _usage_exit(argv):
    """The exit code argparse raises for ``argv`` (a usage error)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestTable:
    def test_every_command_is_listed_or_in_help(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed == [c.line for c in COMMANDS.values() if c.listed]
        unlisted = {c.name for c in COMMANDS.values() if not c.listed}
        assert unlisted == {"list", "all"}
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for command in COMMANDS.values():
            assert command.line in help_text

    def test_figures_are_the_harnesses(self):
        from repro.experiments import HARNESSES

        figures = [c.name for c in COMMANDS.values()
                   if c.handler is cli._figure_cmd]
        assert figures == list(EXPERIMENTS)
        assert set(figures) == set(HARNESSES)

    def test_module_docstring_names_every_tool(self):
        for command in COMMANDS.values():
            if command.handler is not cli._figure_cmd:
                assert f"``repro {command.usage}``" in cli.__doc__

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_each_command_dispatches_to_its_handler(self, name,
                                                    monkeypatch):
        seen = []
        monkeypatch.setitem(COMMANDS, name, COMMANDS[name]._replace(
            handler=lambda args: seen.append(args) or 7))
        assert main([name.upper()]) == 7
        assert [args.command for args in seen] == [name]

    def test_flags_are_per_command(self):
        for command in COMMANDS.values():
            assert set(command.flags) <= set(cli.FLAGS)
            command.parser()  # every row builds


class TestForeignFlags:
    @pytest.mark.parametrize("argv", [
        ["sweep", "fig4", "--port", "5"],
        ["trace", "jacobi", "--jobs", "2"],
        ["fig4", "--json"],
        ["cells", "exchange", "--contention"],
        ["list", "--size", "tiny"],
    ])
    def test_rejected_with_exit_2(self, argv, capsys):
        assert _usage_exit(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBadValues:
    @pytest.mark.parametrize("argv", [
        ["cells", "exchange", "--cells", "0x1"],
        ["cells", "exchange", "--cells", "2by1"],
        ["cells", "exchange", "--cell-workers", "0"],
        ["sweep", "fig4", "--jobs", "-1"],
        ["serve", "--jobs", "-1"],
        ["sweep", "fig4", "--retries", "-1"],
        ["sweep", "fig4", "--timeout", "0"],
        ["submit", "fig4", "--timeout", "-3"],
    ])
    def test_usage_error_is_exit_2(self, argv, capsys):
        assert _usage_exit(argv) == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_cells_grid_parses(self):
        assert cli._grid("3X2") == (3, 2)


class TestUsageErrorsReturn2:
    @pytest.mark.parametrize("argv, err", [
        (["fig99"], "unknown experiment 'fig99'; try 'list'\n"),
        (["sweep", "fig99"], "unknown sweep target 'fig99'; one of: "),
        (["audit", "nonesuch"], "unknown suite kernel 'nonesuch'; one of: "),
        (["pim", "nope"], "unknown offload kernel 'nope'; one of: "),
        (["sanitize"], "sanitize: missing kernel (repro sanitize "
                       "<kernel|fixture>); one of: "),
        (["journal"], "journal: missing path (repro journal <path>)\n"),
    ])
    def test_returned_not_raised(self, argv, err, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(err)
        assert captured.out == ""


class TestFigureIsRenderOfRun:
    @pytest.mark.parametrize("argv, module, kwargs", [
        (["fig4"], "fig04_barrier", {}),
        (["tables", "--size", "tiny"], "tables", {"size": "tiny"}),
    ])
    def test_prints_exactly_render_of_run(self, argv, module, kwargs,
                                          capsys):
        from importlib import import_module

        harness = import_module("repro.experiments." + module)
        harness.render(harness.run(**kwargs))
        expected = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_harnesses_have_one_entry_point(self):
        from repro.experiments import HARNESSES

        for name, harness in HARNESSES.items():
            assert not hasattr(harness, "main"), name


class TestPimAll:
    def test_text_mode_prints_the_bank_sweep(self, capsys):
        assert main(["pim", "all", "--size", "tiny"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "GEMV", "DOT", "AXPY", "GEMV"]
        assert lines[-1] == ("GEMV bank sweep: 4b=1507, 8b=1151, 16b=1139 "
                             "-- scales with banks")

    def test_cli_is_the_only_entry_point(self):
        from repro.experiments import pim_offload

        assert not hasattr(pim_offload, "main")
