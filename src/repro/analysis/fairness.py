"""Fairness metrics."""

from __future__ import annotations

from collections.abc import Sequence


def jains_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 is perfectly fair; 1/n means one flow holds everything.
    """
    if not allocations:
        raise ValueError("need at least one allocation")
    if any(x < 0 for x in allocations):
        raise ValueError("allocations must be non-negative")
    peak = max(allocations)
    if peak <= 0.0:
        return 1.0  # all-zero: degenerate but conventionally fair
    # The index is scale-free; dividing by the peak keeps x*x out of the
    # subnormal range, where tiny allocations would lose their precision.
    scaled = [x / peak for x in allocations]
    total = sum(scaled)
    squares = sum(x * x for x in scaled)
    return total * total / (len(allocations) * squares)
