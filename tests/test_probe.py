"""The probe bus: fan-out identity and the vocabulary guard."""

import ast
import functools
import inspect
import os

import pytest

import repro
from repro.audit import Auditor, audit_report
from repro.experiments.common import suite_args
from repro.kernels import registry
from repro.perf.bisection import LinkSeries
from repro.probe import POINTS, Probe, attach
from repro.sanitize import FIXTURE, Sanitizer, fixture_args
from repro.trace import Trace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro")
CHECKERS = ("trace", "sanitize", "audit")
SUBSCRIBERS = (Trace, Sanitizer, Auditor, LinkSeries)


# -- (a) every checker reports the same alone and behind the fan-out ---------

def _outputs(result, tmp_path, tag):
    """Each attached checker's output, as the bytes a user would keep."""
    out = {}
    if "trace" in result.extra:
        path = tmp_path / f"{tag}.json"
        result.extra["trace"].write_chrome(str(path))
        out["trace"] = path.read_bytes()
    if "sanitize" in result.extra:
        out["sanitize"] = result.extra["sanitize"].report()
    if "audit" in result.extra:
        out["audit"] = audit_report(result.extra["audit"])
    return out


def _alone_vs_together(run, tmp_path):
    together = _outputs(run(**dict.fromkeys(CHECKERS, True)), tmp_path,
                        "together")
    for checker in CHECKERS:
        alone = _outputs(run(**{checker: True}), tmp_path, checker)
        assert alone[checker] == together[checker], checker
    return together


@pytest.mark.parametrize("name", ["AES", "PR", "Jacobi", "BFS"])
def test_fanout_matches_each_checker_alone(name, tiny_config, tmp_path):
    def run(**flags):
        return repro.run(tiny_config, registry.SUITE[name].kernel,
                         suite_args(name, "tiny"), **flags)

    together = _alone_vs_together(run, tmp_path)
    assert together["audit"]["checks"] > 0


def test_fanout_matches_alone_on_the_racy_fixture(tiny_config, tmp_path):
    def run(**flags):
        session = repro.Session(tiny_config, **flags)
        session.launch(FIXTURE, fixture_args())
        return session.run()[0]

    together = _alone_vs_together(run, tmp_path)
    assert not together["sanitize"]["clean"]


# -- wiring ------------------------------------------------------------------

class TestAttach:
    def test_lone_subscriber_is_the_probe(self, tiny_machine):
        auditor = Auditor()
        assert attach(tiny_machine, auditor) is auditor
        bank = next(iter(tiny_machine.memsys.banks.values()))
        assert bank._probe is auditor

    def test_fanout_point_is_the_lone_observers_bound_method(
            self, tiny_machine):
        trace, sanitizer, auditor = Trace(), Sanitizer(), Auditor()
        probe = attach(tiny_machine, trace, sanitizer, auditor)
        assert probe.subscribers == (trace, sanitizer, auditor)
        assert probe.load == sanitizer.load  # one call, no wrapper
        assert probe.stall == trace.stall
        assert probe.host_range == sanitizer.host_range

    def test_components_nobody_observes_stay_unprobed(self, tiny_machine):
        attach(tiny_machine, LinkSeries(8))
        memsys = tiny_machine.memsys
        assert memsys.req_net._probe is not None
        assert tiny_machine.sim._probe is None  # the fast run loop stays
        assert all(core._probe is None
                   for core in tiny_machine.cores.values())
        assert all(bank._probe is None for bank in memsys.banks.values())

    def test_double_attach_rejected(self, tiny_machine):
        attach(tiny_machine, Sanitizer())
        with pytest.raises(RuntimeError, match="already has a probe"):
            attach(tiny_machine, Auditor())

    def test_attach_needs_a_subscriber(self, tiny_machine):
        with pytest.raises(ValueError):
            attach(tiny_machine)


# -- (b) the vocabulary guard ------------------------------------------------

def _is_probe(node):
    """``probe`` or ``<anything>._probe``: an expression holding a probe."""
    return ((isinstance(node, ast.Name) and node.id == "probe")
            or (isinstance(node, ast.Attribute) and node.attr == "_probe"))


@functools.lru_cache(maxsize=None)
def _emission_sites():
    """``(file, line, point, call-or-None)`` for every point reached
    through a probe anywhere under ``src/repro``."""
    sites = []
    for root, _dirs, files in os.walk(SRC):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            calls = {id(n.func): n for n in ast.walk(tree)
                     if isinstance(n, ast.Call)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and _is_probe(node.value):
                    rel = os.path.relpath(path, SRC)
                    sites.append((rel, node.lineno, node.attr,
                                  calls.get(id(node))))
    return sites


def test_every_emitted_point_is_declared_and_positional():
    sites = _emission_sites()
    assert sites
    for rel, line, point, call in sites:
        assert point in POINTS, f"{rel}:{line}: undeclared point {point!r}"
        if call is not None:
            assert not call.keywords, (
                f"{rel}:{line}: {point} called with keywords; the fan-out "
                "forwards positional arguments only")


def test_every_declared_point_is_emitted_and_observed():
    emitted = {point for _rel, _line, point, _call in _emission_sites()}
    for point in POINTS:
        assert point in emitted, f"{point} is declared but never emitted"
        assert any(getattr(cls, point) is not getattr(Probe, point)
                   for cls in SUBSCRIBERS), f"nobody observes {point}"


@pytest.mark.parametrize("cls", SUBSCRIBERS, ids=lambda c: c.__name__)
def test_overrides_keep_the_declared_signature(cls):
    for point in POINTS:
        override = getattr(cls, point)
        if override is getattr(Probe, point):
            continue
        assert (list(inspect.signature(override).parameters)
                == list(inspect.signature(getattr(Probe, point)).parameters)
                ), f"{cls.__name__}.{point}"
