"""Shrinker tests: monotonic reduction, still-violating invariant."""

import pytest

from repro.adversary import ScenarioGenome, eval_item, shrink_item
from repro.adversary.shrink import ShrinkResult
from repro.harness import BandwidthStep, FlowSpec, Timeline

MISTUNED = {
    "protocol": "proteus-s",
    "params": {"utility_params": {"b": 1.0, "d": 1.0}},
}

# A bare low-bandwidth link the mis-tuned controller violates on, padded
# with clutter the shrinker should strip: an irrelevant timeline step, an
# extra traffic flow, and unrounded scalars.
CLUTTERED = ScenarioGenome(
    bandwidth_mbps=16.123,
    rtt_ms=25.0,
    buffer_kb=77.0,
    duration_s=3.0,
    timeline=Timeline((BandwidthStep(at_s=2.5, bandwidth_mbps=15.0),)),
    traffic=(FlowSpec("onoff", start_time=1.0, kwargs={"on_mbps": 3.0}),),
)


def test_shrink_reduces_size_and_preserves_violation():
    item = eval_item(CLUTTERED, objective="primary_harm", controller=MISTUNED, seed=3)
    result = shrink_item(item)
    assert isinstance(result, ShrinkResult)
    assert result.parent_size == CLUTTERED.size() == 3
    assert result.reduced
    assert result.size < result.parent_size
    assert result.value["violation"] is True
    assert result.steps >= 1
    # The shrunk item is itself a valid, strictly smaller eval item.
    shrunk_genome = ScenarioGenome.from_dict(result.item["genome"])
    assert shrunk_genome.size() == result.size


def test_shrink_steps_are_monotonic():
    sizes = []
    item = eval_item(CLUTTERED, objective="primary_harm", controller=MISTUNED, seed=3)
    shrink_item(item, on_step=lambda parent, size, score: sizes.append(size))
    assert sizes == sorted(sizes, reverse=True)
    assert all(size < CLUTTERED.size() for size in sizes)


def test_shrink_requires_a_violating_item():
    benign = ScenarioGenome(
        bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0, duration_s=3.0
    )
    item = eval_item(
        benign,
        objective="primary_harm",
        controller={"protocol": "proteus-s", "params": {}},
        seed=3,
        threshold=0.9,
    )
    with pytest.raises(ValueError, match="violating"):
        shrink_item(item)


def test_shrink_rejects_crashing_candidates():
    item = eval_item(CLUTTERED, objective="primary_harm", controller=MISTUNED, seed=3)

    calls = {"n": 0}
    real_scores = {}

    def flaky_evaluate(candidate):
        from repro.adversary import evaluate_genome

        calls["n"] += 1
        if calls["n"] == 2:  # first *candidate* evaluation crashes
            raise RuntimeError("boom")
        value = evaluate_genome(candidate)
        real_scores[calls["n"]] = value["score"]
        return value

    result = shrink_item(item, evaluate=flaky_evaluate)
    # The crash rejected one candidate but shrinking still progressed.
    assert result.reduced
    assert result.value["violation"] is True
