"""Measurement utilities: speedup curves and report formatting."""

from .report import ascii_plot, format_table
from .speedup import SpeedupCurve, speedup_from_times

__all__ = [
    "SpeedupCurve",
    "speedup_from_times",
    "format_table",
    "ascii_plot",
]
