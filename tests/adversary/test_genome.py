"""Unit tests for the scenario genome: round-trip, sampling, variation."""

import pytest

from repro.adversary import ScenarioGenome, crossover, mutate, sample_genome
from repro.adversary.genome import HOSTILE_PROTOCOLS, rounded_scalars
from repro.core.rng import Rng
from repro.harness import BandwidthStep, FlowSpec, Outage, Timeline
from repro.protocols import PROTOCOL_NAMES


def test_round_trip_is_exact():
    rng = Rng("genome:roundtrip")
    for _ in range(20):
        genome = sample_genome(rng)
        rebuilt = ScenarioGenome.from_dict(genome.to_dict())
        assert rebuilt == genome
        assert rebuilt.to_dict() == genome.to_dict()


def test_sampling_is_deterministic():
    a = [sample_genome(Rng("genome:det")) for _ in range(5)]
    b = [sample_genome(Rng("genome:det")) for _ in range(5)]
    assert a == b


def test_sampled_traffic_uses_known_protocols():
    rng = Rng("genome:protocols")
    for _ in range(50):
        for flow in sample_genome(rng).traffic:
            assert flow.protocol in PROTOCOL_NAMES


def test_hostile_protocols_are_registered():
    for name in HOSTILE_PROTOCOLS:
        assert name in PROTOCOL_NAMES


def test_validation_rejects_bad_scalars():
    with pytest.raises(ValueError):
        ScenarioGenome(bandwidth_mbps=0.0, rtt_ms=30.0, buffer_kb=100.0, duration_s=8.0)
    with pytest.raises(ValueError):
        ScenarioGenome(bandwidth_mbps=10.0, rtt_ms=30.0, buffer_kb=100.0, duration_s=-1.0)
    with pytest.raises(ValueError):
        ScenarioGenome(
            bandwidth_mbps=10.0,
            rtt_ms=30.0,
            buffer_kb=100.0,
            duration_s=8.0,
            noise_severity=-0.1,
        )


def test_validation_rejects_invalid_timeline():
    unsorted = Timeline(
        (
            BandwidthStep(at_s=4.0, bandwidth_mbps=10.0),
            BandwidthStep(at_s=1.0, bandwidth_mbps=20.0),
        )
    )
    with pytest.raises(ValueError):
        ScenarioGenome(
            bandwidth_mbps=10.0,
            rtt_ms=30.0,
            buffer_kb=100.0,
            duration_s=8.0,
            timeline=unsorted,
        )


def test_size_counts_steps_flows_and_unrounded_scalars():
    plain = ScenarioGenome(
        bandwidth_mbps=10.0, rtt_ms=30.0, buffer_kb=100.0, duration_s=8.0
    )
    assert plain.size() == 0
    busy = ScenarioGenome(
        bandwidth_mbps=10.123,  # one unrounded scalar
        rtt_ms=30.0,
        buffer_kb=100.0,
        duration_s=8.0,
        timeline=Timeline((BandwidthStep(at_s=2.0, bandwidth_mbps=5.0),)),
        traffic=(FlowSpec("onoff"),),
    )
    assert busy.size() == 3


def test_rounded_scalars_shrinks_or_returns_none():
    plain = ScenarioGenome(
        bandwidth_mbps=10.0, rtt_ms=30.0, buffer_kb=100.0, duration_s=8.0
    )
    assert rounded_scalars(plain) is None
    rough = ScenarioGenome(
        bandwidth_mbps=10.123, rtt_ms=29.876, buffer_kb=100.0, duration_s=8.0
    )
    rounded = rounded_scalars(rough)
    assert rounded is not None
    assert rounded.size() < rough.size()
    assert rounded.bandwidth_mbps == pytest.approx(10.1)
    assert rounded.rtt_ms == pytest.approx(29.9)


def test_mutation_always_yields_valid_genomes():
    rng = Rng("genome:mutate")
    genome = sample_genome(rng)
    for _ in range(60):
        genome = mutate(genome, rng)  # __post_init__ validates
        assert len(genome.traffic) <= 4
        genome.timeline.validate()


def test_crossover_mixes_parents_deterministically():
    rng = Rng("genome:cross")
    a, b = sample_genome(rng), sample_genome(rng)
    child1 = crossover(a, b, Rng("genome:cross:child"))
    child2 = crossover(a, b, Rng("genome:cross:child"))
    assert child1 == child2
    assert child1.bandwidth_mbps in (a.bandwidth_mbps, b.bandwidth_mbps)
    assert len(child1.traffic) <= 4


def test_outage_overlap_repair_in_sampling_helpers():
    # Two overlapping outages fed through perturb's repair path: slid
    # apart, duration preserved, validate passes.
    rng = Rng("genome:outage")
    timeline = Timeline(
        (
            Outage(start_s=1.0, end_s=2.0),
            Outage(start_s=1.5, end_s=2.5),
        )
    )
    repaired = timeline.perturb(rng, time_jitter_s=0.0, magnitude_frac=0.0)
    repaired.validate()
    first, second = repaired.steps
    assert second.start_s >= first.end_s
    assert second.end_s - second.start_s == pytest.approx(1.0)


def test_from_dict_rejects_unknown_schema():
    genome = sample_genome(Rng("genome:schema"))
    data = genome.to_dict()
    data["schema"] = 99
    with pytest.raises(ValueError):
        ScenarioGenome.from_dict(data)
