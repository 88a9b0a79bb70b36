"""The parallel benchmark suite (paper Table I)."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".aes": None,
    ".barneshut": None,
    ".bfs": None,
    ".blackscholes": None,
    ".fft": None,
    ".jacobi": None,
    ".pagerank": None,
    ".sgemm": None,
    ".smithwaterman": None,
    ".spgemm": None,
    ".registry": ["FIG11_ORDER", "SUITE", "Benchmark", "fast_args"],
})
