"""Metrics and theory: fairness, paper statistics, and equilibria."""

from .equilibrium import (
    GameConfig,
    SenderSpec,
    best_response,
    hybrid_rate_prediction,
    solve_equilibrium,
    utility,
)
from .fairness import jains_index
from .stats import (
    cdf_points,
    confusion_probability,
    histogram_pdf,
    inflation_ratio_95th,
    percentile,
    windowed_latency_metrics,
)

__all__ = [
    "GameConfig",
    "SenderSpec",
    "best_response",
    "cdf_points",
    "confusion_probability",
    "histogram_pdf",
    "hybrid_rate_prediction",
    "inflation_ratio_95th",
    "jains_index",
    "percentile",
    "solve_equilibrium",
    "utility",
    "windowed_latency_metrics",
]
