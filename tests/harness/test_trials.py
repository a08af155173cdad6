"""Tests for the multi-trial statistics runner."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import Rng
from repro.harness import run_trials, run_trials_multi, summarize
from repro.harness.trials import TrialSummary


def test_summarize_basic_statistics():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.n == 5
    assert s.mean == pytest.approx(3.0)
    assert s.median == pytest.approx(3.0)
    assert s.minimum == 1.0
    assert s.maximum == 5.0
    assert s.ci_low <= s.mean <= s.ci_high


def test_summarize_even_count_median():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.median == pytest.approx(2.5)


def test_summarize_single_value_degenerate_ci():
    s = summarize([7.0])
    assert s.ci_low == s.ci_high == 7.0
    assert s.std == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_rejects_no_resamples():
    with pytest.raises(ValueError, match="ci_resamples"):
        summarize([1.0, 2.0], ci_resamples=0)
    with pytest.raises(ValueError, match="ci_resamples"):
        summarize([1.0], ci_resamples=-1)


def _summarize_one_draw_per_resample(values, ci_resamples, seed):
    """The bootstrap as written before it drew every resample at once."""
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    if n == 1:
        ci_low = ci_high = mean
    else:
        choices = Rng(seed).choices
        inv_n = 1.0 / n
        means = [sum(choices(ordered, k=n)) * inv_n for _ in range(ci_resamples)]
        means.sort()
        ci_low = means[int(0.025 * ci_resamples)]
        ci_high = means[int(0.975 * ci_resamples)]
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return TrialSummary(
        n, mean, median, math.sqrt(variance), ordered[0], ordered[-1], ci_low, ci_high
    )


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12),
        min_size=1,
        max_size=20,
    ),
    ci_resamples=st.sampled_from([1, 7, 2000]),
    seed=st.integers(0, 3),
)
def test_single_draw_bootstrap_equals_per_resample_draws(values, ci_resamples, seed):
    expected = _summarize_one_draw_per_resample(values, ci_resamples, seed)
    assert summarize(values, ci_resamples=ci_resamples, seed=seed) == expected


@pytest.mark.parametrize("n", [2, 3, 10])
def test_summarize_makes_one_choices_call(monkeypatch, n):
    calls = []

    def counting_choices(self, *args, **kwargs):
        calls.append(kwargs.get("k"))
        return random.Random.choices(self, *args, **kwargs)

    monkeypatch.setattr(Rng, "choices", counting_choices)
    summarize([float(v) for v in range(n)])
    assert calls == [n * 2000]


def test_bootstrap_ci_pinned_for_fixed_seed():
    """Regression pin for the vectorized bootstrap resampler.

    ``summarize`` now draws each resample with one ``rng.choices`` pass
    instead of a per-element ``randrange`` loop; these exact CI values
    (seed 0, 2000 resamples) must never drift silently — a change here
    means the resampling algorithm or its RNG stream changed.
    """
    s = summarize([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3], seed=0)
    assert s.mean == pytest.approx(5.12)
    assert s.ci_low == pytest.approx(3.29, abs=1e-12)
    assert s.ci_high == pytest.approx(7.21, abs=1e-12)


def test_bootstrap_ci_seed_sensitivity():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    a = summarize(values, seed=0)
    b = summarize(values, seed=1)
    assert (a.ci_low, a.ci_high) != (b.ci_low, b.ci_high)


def test_run_trials_parallel_matches_serial():
    serial = run_trials(_seed_echo, n_trials=6, base_seed=3, jobs=1)
    parallel = run_trials(_seed_echo, n_trials=6, base_seed=3, jobs=4)
    assert serial == parallel  # TrialSummary is a frozen dataclass


def _seed_echo(seed: int) -> float:  # module-level: picklable for workers
    return float(seed)


def test_bootstrap_ci_narrows_with_consistency():
    tight = summarize([10.0, 10.1, 9.9, 10.0, 10.05] * 4)
    wide = summarize([5.0, 15.0, 2.0, 18.0, 10.0] * 4)
    assert (tight.ci_high - tight.ci_low) < (wide.ci_high - wide.ci_low)


def test_run_trials_feeds_distinct_seeds():
    seen = []

    def experiment(seed: int) -> float:
        seen.append(seed)
        return float(seed)

    s = run_trials(experiment, n_trials=5, base_seed=10)
    assert seen == [10, 11, 12, 13, 14]
    assert s.mean == pytest.approx(12.0)


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(lambda s: 0.0, n_trials=0)


def test_run_trials_multi_collects_all_metrics():
    def experiment(seed: int) -> dict:
        return {"a": float(seed), "b": float(seed * 2)}

    out = run_trials_multi(experiment, n_trials=3, base_seed=1)
    assert set(out) == {"a", "b"}
    assert out["a"].mean == pytest.approx(2.0)
    assert out["b"].mean == pytest.approx(4.0)
