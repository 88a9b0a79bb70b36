"""repro.sanitize: a dynamic PGAS race and synchronization checker.

Usage (the Session flag is the normal entry point)::

    import repro

    session = repro.Session(repro.HB_16x8, sanitize=True)
    session.launch(kernel, args)
    session.run()
    print(session.sanitizer.summary())
    assert session.sanitizer.clean

or, from a shell::

    python -m repro sanitize PR --size small
    python -m repro sanitize fixture --json

See :mod:`repro.sanitize.checker` for the happens-before model and
``docs/MODEL.md`` ("Memory model & synchronization") for the rules the
checker enforces.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".checker": ["Finding", "SanitizeConfig", "Sanitizer"],
    ".fixture": ["DEADLOCK_FIXTURE", "FIXTURE", "fixture_args"],
    ".report": ["format_report", "sanitize_report"],
})
