"""Multi-trial experiment statistics.

The paper reports "the mean of at least 10 trials in each scenario" and
medians of 4 trials for the Internet tests.  This module runs any
experiment function across seeds and summarises the distribution,
including a bootstrap confidence interval so benchmark shape claims can
be checked against sampling noise rather than a single draw.

Long sweeps can run *supervised*: pass ``manifest=`` (and optionally a
:class:`~repro.harness.supervise.RetryPolicy`) to journal every
completed trial to an append-only checkpoint and resume after an
interruption, or call :func:`run_trials_supervised` for the raw
per-trial :class:`~repro.harness.supervise.TrialOutcome` records.  See
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..core.rng import Rng
from .parallel import pmap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .supervise import RetryPolicy, SweepManifest, TrialOutcome


@dataclass(frozen=True)
class TrialSummary:
    """Distribution summary of one scalar metric across trials."""

    n: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    ci_low: float  # bootstrap 95% CI of the mean
    ci_high: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"mean={self.mean:.3f} +/- [{self.ci_low:.3f}, {self.ci_high:.3f}] "
            f"(median {self.median:.3f}, n={self.n})"
        )


_PLAN: tuple[tuple[int, int, int], Callable[[Sequence[float]], tuple]] | None = None


def _resample_plan(n: int, ci_resamples: int, seed: int) -> Callable[[Sequence[float]], tuple]:
    """Gather every bootstrap draw of ``n`` values in one call.

    The positions ``Rng(seed).choices`` picks depend only on ``n``,
    ``ci_resamples`` and ``seed``, so the plan for the latest such triple
    is kept: a sweep summarises many cells of the same size.
    """
    global _PLAN
    triple = (n, ci_resamples, seed)
    if _PLAN is None or _PLAN[0] != triple:
        # A list, not the range itself: choices() indexes its population
        # once per draw, and a list hands back its stored ints.
        positions = Rng(seed).choices(list(range(n)), k=n * ci_resamples)
        _PLAN = (triple, itemgetter(*positions))
    return _PLAN[1]


def summarize(values: Sequence[float], ci_resamples: int = 2000, seed: int = 0) -> TrialSummary:
    """Summarise trial outcomes with a bootstrap CI of the mean."""
    if not values:
        raise ValueError("no trial values")
    if ci_resamples < 1:
        raise ValueError(f"ci_resamples must be at least 1, got {ci_resamples}")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    if n == 1:
        ci_low = ci_high = mean
    else:
        # Every resample's n draws come from one rng.choices() call for
        # all of them, summed n at a time.  choices() takes its k values
        # from random() one after another, so this is the same stream and
        # the same left-to-right additions as one call per resample: the
        # CI is bit-identical (pinned by the regression test).  choices()
        # picks population[floor(random() * n)], so drawing the positions
        # once and gathering them is the same sequence of values.
        draws = iter(_resample_plan(n, ci_resamples, seed)(ordered))
        inv_n = 1.0 / n
        means = sorted(total * inv_n for total in map(sum, zip(*[draws] * n)))
        ci_low = means[int(0.025 * ci_resamples)]
        ci_high = means[int(0.975 * ci_resamples)]
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return TrialSummary(
        n=n,
        mean=mean,
        median=median,
        std=math.sqrt(variance),
        minimum=ordered[0],
        maximum=ordered[-1],
        ci_low=ci_low,
        ci_high=ci_high,
    )


def run_trials_supervised(
    experiment: Callable[[int], Any],
    n_trials: int = 10,
    base_seed: int = 1,
    jobs: int | None = None,
    policy: "RetryPolicy | None" = None,
    manifest: "str | Path | SweepManifest | None" = None,
) -> "list[TrialOutcome]":
    """Run ``experiment(seed)`` under supervision; one outcome per seed.

    A raising, livelocked, or worker-killing trial becomes a structured
    failure record instead of aborting its siblings; with ``manifest``
    set, completed trials are journaled and skipped on re-run (resume).
    See :mod:`repro.harness.supervise`.
    """
    from .supervise import supervised_map, trial_payload

    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    seeds = [base_seed + i for i in range(n_trials)]
    payloads = [trial_payload(experiment, seed) for seed in seeds]
    return supervised_map(
        experiment,
        seeds,
        payloads=payloads,
        seeds=seeds,
        jobs=jobs,
        policy=policy,
        manifest=manifest,
    )


def _count_outcomes(registry, outcomes: "list[TrialOutcome]") -> None:
    """Increment ``trials.<status>`` counters on a metrics registry."""
    for outcome in outcomes:
        registry.counter("trials.total").inc()
        registry.counter("trials.by_status", status=outcome.status).inc()
        if outcome.resumed:
            registry.counter("trials.resumed").inc()


def run_trials(
    experiment: Callable[[int], float],
    n_trials: int = 10,
    base_seed: int = 1,
    jobs: int | None = None,
    policy: "RetryPolicy | None" = None,
    manifest: "str | Path | SweepManifest | None" = None,
    metrics=None,
) -> TrialSummary:
    """Run ``experiment(seed)`` for ``n_trials`` seeds and summarise.

    Seeded runs are independent, so they fan out across a process pool
    (``jobs``, default ``REPRO_JOBS``/CPU count); results are collected
    in seed order, so the summary is identical to a serial run.
    Unpicklable experiments (closures) transparently run serially.

    Passing ``manifest`` and/or ``policy`` routes through the supervised
    executor: completed trials are checkpointed (and skipped on resume)
    and failing trials are retried, then *excluded* from the summary —
    ``summarize`` raises ``ValueError("no trial values")`` only if every
    trial failed.  Use :func:`run_trials_supervised` to inspect the
    failures themselves.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) accumulates
    ``trials.total`` / ``trials.by_status{status=...}`` /
    ``trials.resumed`` counters across calls — sweep drivers hand one
    registry to every ``run_trials`` call and read a single snapshot.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if policy is not None or manifest is not None:
        outcomes = run_trials_supervised(
            experiment, n_trials, base_seed, jobs=jobs, policy=policy, manifest=manifest
        )
        if metrics is not None:
            _count_outcomes(metrics, outcomes)
        return summarize([o.value for o in outcomes if o.ok])
    seeds = [base_seed + i for i in range(n_trials)]
    values = pmap(experiment, seeds, jobs=jobs)
    if metrics is not None:
        from .supervise import STATUS_OK, TrialOutcome

        _count_outcomes(
            metrics,
            [TrialOutcome(status=STATUS_OK, key="") for _ in values],
        )
    return summarize(values)


def run_trials_multi(
    experiment: Callable[[int], dict[str, float]],
    n_trials: int = 10,
    base_seed: int = 1,
    jobs: int | None = None,
    policy: "RetryPolicy | None" = None,
    manifest: "str | Path | SweepManifest | None" = None,
) -> dict[str, TrialSummary]:
    """As :func:`run_trials` for experiments returning several metrics."""
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if policy is not None or manifest is not None:
        supervised = run_trials_supervised(
            experiment, n_trials, base_seed, jobs=jobs, policy=policy, manifest=manifest
        )
        outcomes = [o.value for o in supervised if o.ok]
    else:
        seeds = [base_seed + i for i in range(n_trials)]
        outcomes = pmap(experiment, seeds, jobs=jobs)
    collected: dict[str, list[float]] = {}
    for outcome in outcomes:
        for key, value in outcome.items():
            collected.setdefault(key, []).append(value)
    return {key: summarize(values) for key, values in collected.items()}
