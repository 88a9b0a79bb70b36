"""Opt-in observability: cycle timelines, metrics, Perfetto export.

Usage (through the public :class:`repro.Session` facade)::

    import repro

    session = repro.Session(repro.HB_16x8, trace=True)
    session.launch(kernel, args)
    session.run()
    session.trace.write_chrome("trace.json")   # open in ui.perfetto.dev
    print(session.trace.summary())

A :class:`Trace` is one subscriber of the probe bus
(:mod:`repro.probe`): components carry one ``_probe`` attribute that
defaults to ``None`` and hot paths guard emissions behind a single
``is not None`` check, so untraced runs are bit-identical in cycles to
the seed (golden tests pin this).
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".metrics": ["MetricSeries", "MetricsRegistry"],
    ".perfetto": ["to_chrome", "validate_chrome", "write_chrome"],
    ".report": ["format_report", "trace_report"],
    ".tracer": ["Trace", "TraceConfig"],
})
