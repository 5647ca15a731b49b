"""Analysis layer: scaling fits, registered campaigns, and report rendering."""

from .report import format_value, render_table
from .figures import generate_figures, paper_figures
from .sweeps import MetricSummary, summarize, sweep_spec_metrics
from .visualize import render_label_map, render_union
from .scaling import bound_ratios, is_flat, loglog_slope, ratio_band, semilog_slope

__all__ = [
    "render_table",
    "format_value",
    "loglog_slope",
    "semilog_slope",
    "bound_ratios",
    "ratio_band",
    "is_flat",
    "MetricSummary",
    "sweep_spec_metrics",
    "summarize",
    "render_union",
    "render_label_map",
    "paper_figures",
    "generate_figures",
]
