"""Figure rendering used by the benchmark suite and the examples."""

from .figures import render_speedup_figure

__all__ = [
    "render_speedup_figure",
]
