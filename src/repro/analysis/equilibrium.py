"""Numeric equilibrium analysis of the Proteus game (Appendix A).

Implements the paper's simplified theoretical model: on a shared
bottleneck of capacity ``C`` (Mbps) with total sending rate ``S``,

* ``u_P(x) = x^t - b * x * max(0, (S - C) / C)``
* ``u_S(x) = u_P(x) - d * A * x * |S - C| / C``

where ``A = MI_duration / sqrt(12)`` (the paper's constant obtained from
the arithmetic-progression RTT model with ``n_i`` linear in ``x_i``; for
an RTT-long MI this is ``RTT / sqrt(12)``).

A damped best-response iteration finds the Nash equilibrium; Appendix A
proves it unique (the game is strictly socially concave), so the fixed
point the iteration converges to is *the* equilibrium.  Theorems 4.1/4.2
(fair, link-saturating equilibria for all-P and all-S populations) and the
§4.4 Proteus-H four-case rate-split prediction are validated against this
solver in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.utility import (
    DEFAULT_DEVIATION_D,
    DEFAULT_EXPONENT_T,
    DEFAULT_LATENCY_B,
)


@dataclass(frozen=True)
class SenderSpec:
    """One player in the bottleneck game.

    ``mode`` is ``"P"``, ``"S"``, or ``"H"``; hybrid players carry their
    switching threshold in Mbps.
    """

    mode: str
    threshold_mbps: float = float("inf")

    def __post_init__(self) -> None:
        if self.mode not in ("P", "S", "H"):
            raise ValueError("mode must be P, S, or H")


@dataclass
class GameConfig:
    """Parameters of the theoretical model."""

    capacity_mbps: float
    rtt_s: float = 0.030
    t: float = DEFAULT_EXPONENT_T
    b: float = DEFAULT_LATENCY_B
    d: float = DEFAULT_DEVIATION_D

    @property
    def deviation_const(self) -> float:
        """The paper's ``A`` for an RTT-long monitor interval, in seconds."""
        return self.rtt_s / math.sqrt(12.0)


def utility(x: float, others_sum: float, spec: SenderSpec, config: GameConfig) -> float:
    """Model utility of one sender at rate ``x`` (Mbps)."""
    if x < 0:
        return -math.inf
    total = x + others_sum
    capacity = config.capacity_mbps
    overload = (total - capacity) / capacity
    u_primary = x ** config.t - config.b * x * max(0.0, overload)
    if spec.mode == "P" or (spec.mode == "H" and x < spec.threshold_mbps):
        return u_primary
    deviation_penalty = config.d * config.deviation_const * x * abs(overload)
    return u_primary - deviation_penalty


def best_response(
    others_sum: float, spec: SenderSpec, config: GameConfig
) -> float:
    """The sender's utility-maximising rate given everyone else's total."""
    from scipy import optimize  # here, not at import: 0.6 s of every `repro` command

    upper = max(config.capacity_mbps * 2.0, 1.0)

    def negative_utility(x: float) -> float:
        return -utility(x, others_sum, spec, config)

    result = optimize.minimize_scalar(
        negative_utility, bounds=(0.0, upper), method="bounded",
        options={"xatol": 1e-7},
    )
    best_x = float(result.x)
    best_u = -float(result.fun)
    # The hybrid utility is only piecewise-concave: check both pieces'
    # local optima plus the threshold point itself.
    if spec.mode == "H" and math.isfinite(spec.threshold_mbps):
        for candidate in _hybrid_candidates(others_sum, spec, config):
            u = utility(candidate, others_sum, spec, config)
            if u > best_u:
                best_u = u
                best_x = candidate
    return best_x


def _hybrid_candidates(
    others_sum: float, spec: SenderSpec, config: GameConfig
) -> list[float]:
    from scipy import optimize

    candidates = [max(0.0, spec.threshold_mbps - 1e-9)]
    upper = max(config.capacity_mbps * 2.0, 1.0)
    for mode, lo, hi in (
        ("P", 0.0, min(spec.threshold_mbps, upper)),
        ("S", min(spec.threshold_mbps, upper), upper),
    ):
        if hi <= lo:
            continue
        piece = SenderSpec(mode)
        result = optimize.minimize_scalar(
            lambda x: -utility(x, others_sum, piece, config),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-7},
        )
        candidates.append(float(result.x))
    return candidates


def solve_equilibrium(
    specs: list[SenderSpec],
    config: GameConfig,
    max_iterations: int = 2000,
    damping: float = 0.3,
    tolerance_mbps: float = 1e-4,
) -> list[float]:
    """Damped best-response iteration to the (unique) Nash equilibrium."""
    if not specs:
        raise ValueError("need at least one sender")
    n = len(specs)
    rates = [config.capacity_mbps / n] * n
    for _ in range(max_iterations):
        max_change = 0.0
        for i, spec in enumerate(specs):
            others = sum(rates) - rates[i]
            target = best_response(others, spec, config)
            new_rate = (1.0 - damping) * rates[i] + damping * target
            max_change = max(max_change, abs(new_rate - rates[i]))
            rates[i] = new_rate
        if max_change < tolerance_mbps:
            return rates
    raise RuntimeError(
        f"best-response iteration did not converge within {max_iterations} rounds"
    )


def hybrid_rate_prediction(
    r1_mbps: float, r2_mbps: float, capacity_mbps: float
) -> tuple[float, float]:
    """§4.4's ideal rate split for two Proteus-H senders (r1 <= r2)."""
    if r1_mbps > r2_mbps:
        raise ValueError("expects r1 <= r2")
    c = capacity_mbps
    if c < 2.0 * r1_mbps:
        return c / 2.0, c / 2.0
    if c < r1_mbps + r2_mbps:
        return r1_mbps, c - r1_mbps
    if c < 2.0 * r2_mbps:
        return c - r2_mbps, r2_mbps
    return c / 2.0, c / 2.0
