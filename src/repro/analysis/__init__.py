"""Result aggregation and reporting.

Histograms, method aggregates, plain-text tables and distribution
validation for experiment outputs.  The determinism checks are
``repro lint`` (:mod:`repro.lint`) and the tier-1 engine-pair tests.
"""

from .histogram import (
    KernelShape,
    TimeHistogram,
    classify_times,
    peak_ranges,
    render_histogram,
)
from .metrics import MethodAggregate, aggregate_results, harmonic_mean
from .plots import ScatterPoint, render_gantt, render_scatter
from .reporting import format_value, render_series, render_table
from .validation import DistributionMatch, validate_distribution, weighted_ks_statistic

__all__ = [
    "harmonic_mean",
    "MethodAggregate",
    "aggregate_results",
    "TimeHistogram",
    "KernelShape",
    "classify_times",
    "render_histogram",
    "peak_ranges",
    "format_value",
    "render_table",
    "render_series",
    "ScatterPoint",
    "render_scatter",
    "render_gantt",
    "DistributionMatch",
    "weighted_ks_statistic",
    "validate_distribution",
]

