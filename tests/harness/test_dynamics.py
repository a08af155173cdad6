"""Tests for declarative timelines: spec layer, runner wiring, caching, CLI.

The acceptance scenario from the dynamics work: a 40 -> 10 Mbps
bandwidth step at t=30 s must show the flow re-converging (throughput
tracks the new rate, the queue built at the step drains) with exact
packet conservation across the change.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.devtools import stats_digest
from repro.harness import (
    TIMELINES,
    BandwidthFlap,
    BandwidthStep,
    BandwidthTrace,
    DelayStep,
    FlowSpec,
    GilbertLoss,
    LinkConfig,
    LossStep,
    Outage,
    Timeline,
    load_timeline,
    pmap,
    run_flows,
    run_result_summary,
    run_single,
    timeline_from_dict,
)
from repro.harness.cache import enable_cache, reset_cache_state

SMALL_CONFIG = LinkConfig(bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=75.0)


@pytest.fixture
def cache(tmp_path):
    cache = enable_cache(tmp_path / "cache")
    yield cache
    reset_cache_state()


# ----------------------------------------------------------------------
# Spec layer: steps resolve to primitive events
# ----------------------------------------------------------------------
def test_timeline_resolves_sorted_by_time():
    timeline = Timeline(
        (
            BandwidthStep(at_s=5.0, bandwidth_mbps=10.0),
            DelayStep(at_s=1.0, delay_ms=20.0),
            Outage(start_s=2.0, end_s=8.0),
        )
    )
    assert [event.time_s for event in timeline.resolve()] == [1.0, 2.0, 5.0, 8.0]


def test_flap_alternates_and_restores():
    flap = BandwidthFlap(
        start_s=8.0, end_s=28.0, period_s=4.0, low_mbps=6.0, high_mbps=30.0
    )
    events = flap.events()
    assert [event.time_s for event in events] == [
        8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0
    ]
    rates = [event.value[0] for event in events]
    assert rates[0] == pytest.approx(6e6)  # starts by collapsing
    assert rates[1] == pytest.approx(30e6)
    # Restored to the high rate at end_s regardless of phase.
    assert rates[-1] == pytest.approx(30e6)


def test_trace_playback_times_and_rates():
    trace = BandwidthTrace(
        start_s=5.0, interval_s=3.0, bandwidths_mbps=(24.0, 16.0, 9.0)
    )
    events = trace.events()
    assert [event.time_s for event in events] == [5.0, 8.0, 11.0]
    assert [event.value[0] for event in events] == [24e6, 16e6, 9e6]


def test_outage_emits_down_and_up():
    down, up = Outage(start_s=17.5, end_s=18.5).events()
    assert (down.time_s, down.kind) == (17.5, "down")
    assert (up.time_s, up.kind) == (18.5, "up")


def test_step_validation():
    with pytest.raises(ValueError):
        BandwidthStep(at_s=-1.0, bandwidth_mbps=10.0)
    with pytest.raises(ValueError):
        Outage(start_s=5.0, end_s=5.0)
    with pytest.raises(ValueError):
        BandwidthFlap(start_s=0.0, end_s=10.0, period_s=0.0, low_mbps=1.0, high_mbps=2.0)
    with pytest.raises(ValueError):
        BandwidthTrace(start_s=0.0, interval_s=1.0, bandwidths_mbps=())
    with pytest.raises(ValueError):
        LossStep(at_s=0.0, loss_rate=1.0)
    with pytest.raises(ValueError):
        GilbertLoss(at_s=0.0, p_enter_bad=0.1, p_exit_bad=0.0)


# ----------------------------------------------------------------------
# Serialisation: presets and JSON round-trips
# ----------------------------------------------------------------------
def test_presets_roundtrip_through_json():
    for name in TIMELINES:
        timeline = load_timeline(name)
        assert timeline.label == name
        document = json.loads(json.dumps(timeline.to_dict()))
        assert timeline_from_dict(document) == timeline
        assert timeline.resolve()  # every preset produces events


def test_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError, match="steps"):
        timeline_from_dict({"label": "x"})
    with pytest.raises(ValueError, match="unknown timeline step kind"):
        timeline_from_dict({"steps": [{"kind": "teleport"}]})


def test_load_timeline_from_file_and_unknown_name(tmp_path):
    timeline = Timeline(
        (BandwidthStep(at_s=1.0, bandwidth_mbps=5.0),), label="from-file"
    )
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(timeline.to_dict()))
    assert load_timeline(str(path)) == timeline
    with pytest.raises(ValueError, match="not a preset"):
        load_timeline("no-such-timeline")


# ----------------------------------------------------------------------
# Runner: the step-down acceptance scenario
# ----------------------------------------------------------------------
def test_step_down_reconverges_after_capacity_drop():
    config = LinkConfig(bandwidth_mbps=40.0, rtt_ms=30.0, buffer_kb=300.0)
    timeline = Timeline(
        (BandwidthStep(at_s=30.0, bandwidth_mbps=10.0),), label="step-down"
    )
    result = run_flows(
        [FlowSpec("proteus-s")], config, duration_s=45.0, seed=7, timeline=timeline
    )
    stats = result.stats[0]
    assert result.dumbbell is not None
    link = result.dumbbell.bottleneck
    assert link.stats.rate_changes == 1
    assert [event.describe() for event in result.link_events] == [
        "bandwidth -> 10 Mbps"
    ]
    # Before the step the flow tracks the 40 Mbps link...
    assert stats.throughput_bps(20.0, 29.0) / 1e6 > 30.0
    # ...and after it re-converges to the 10 Mbps link.
    post_mbps = stats.throughput_bps(40.0, 45.0) / 1e6
    assert 8.0 < post_mbps < 10.5
    # The queue built at the step drains back to near-base RTT.
    spike = stats.rtt_percentile(50, 30.0, 36.0)
    settled = stats.rtt_percentile(50, 40.0, 45.0)
    assert spike > 0.150
    assert settled < 0.060
    # Packet conservation is exact across the rate change.
    ls = link.stats
    assert ls.offered == (
        ls.delivered + ls.tail_drops + ls.random_losses + ls.outage_drops
    )


def test_gilbert_timeline_reproducible_seed_for_seed():
    timeline = Timeline(
        (GilbertLoss(at_s=1.0, p_enter_bad=0.02, p_exit_bad=0.3, loss_bad=0.6),),
        label="burst",
    )

    def digest(seed):
        result = run_flows(
            [FlowSpec("cubic")], SMALL_CONFIG, duration_s=6.0, seed=seed, timeline=timeline
        )
        assert result.stats[0].loss_count() > 0  # the channel actually bites
        return stats_digest(result.stats)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


@settings(max_examples=5, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=1.4),
            st.floats(min_value=2.0, max_value=30.0),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_property_runner_conservation_with_timeline(steps):
    timeline = Timeline(
        tuple(BandwidthStep(at_s=at_s, bandwidth_mbps=mbps) for at_s, mbps in steps)
    )
    result = run_flows(
        [FlowSpec("cubic")], SMALL_CONFIG, duration_s=1.5, seed=3, timeline=timeline
    )
    ls = result.dumbbell.bottleneck.stats
    assert ls.rate_changes == len(steps)
    assert ls.offered == (
        ls.delivered + ls.tail_drops + ls.random_losses + ls.outage_drops
    )


_PMAP_TIMELINE = Timeline(
    (
        BandwidthStep(at_s=2.0, bandwidth_mbps=8.0),
        GilbertLoss(at_s=3.0, p_enter_bad=0.02, p_exit_bad=0.3, loss_bad=0.6),
    ),
    label="pmap",
)
_PMAP_CONFIG = LinkConfig(bandwidth_mbps=16.0, rtt_ms=30.0, buffer_kb=120.0)


def _timeline_digest(seed: int) -> str:
    """Module-level (hence picklable) experiment for the parallel gate."""
    result = run_flows(
        [FlowSpec("proteus-s")], _PMAP_CONFIG, duration_s=5.0, seed=seed, timeline=_PMAP_TIMELINE
    )
    return stats_digest(result.stats)


def test_timeline_runs_identical_across_worker_counts():
    # REPRO_JOBS=4 vs serial: dynamic scenarios stay bit-reproducible.
    seeds = [3, 4, 5, 6]
    serial = pmap(_timeline_digest, seeds, jobs=1)
    parallel = pmap(_timeline_digest, seeds, jobs=4)
    assert parallel == serial
    assert len(set(serial)) == len(seeds)


# ----------------------------------------------------------------------
# Result cache: the timeline is part of the key
# ----------------------------------------------------------------------
def test_timeline_participates_in_cache_key(cache):
    specs = [FlowSpec("vivace")]
    tl_a = Timeline((BandwidthStep(at_s=1.0, bandwidth_mbps=8.0),), label="t")
    # Identical except for one event time: must be a different key.
    tl_b = Timeline((BandwidthStep(at_s=1.5, bandwidth_mbps=8.0),), label="t")
    run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=7, timeline=tl_a)
    run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=7)  # timeline-free: its own key
    run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=7, timeline=tl_b)
    assert (cache.hits, cache.misses) == (0, 3)
    warm = run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=7, timeline=tl_a)
    assert (cache.hits, cache.misses) == (1, 3)
    # The rebuilt result carries the timeline telemetry without a live run.
    assert warm.dumbbell is None
    assert warm.timeline == tl_a
    assert [event.describe() for event in warm.link_events] == [
        "bandwidth -> 8 Mbps"
    ]


def test_cache_rebuild_matches_live_run(cache):
    specs = [FlowSpec("vivace")]
    timeline = Timeline(
        (
            BandwidthStep(at_s=1.0, bandwidth_mbps=8.0),
            BandwidthStep(at_s=99.0, bandwidth_mbps=20.0),  # beyond duration
        ),
        label="partial",
    )
    cold = run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=7, timeline=timeline)
    warm = run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=7, timeline=timeline)
    assert stats_digest(warm.stats) == stats_digest(cold.stats)
    # Only the event that actually fired is in either log.
    assert len(cold.link_events) == 1
    assert warm.link_events == cold.link_events


# ----------------------------------------------------------------------
# Export and CLI surfaces
# ----------------------------------------------------------------------
def test_summary_includes_timeline_and_events():
    timeline = Timeline(
        (BandwidthStep(at_s=1.0, bandwidth_mbps=8.0),), label="step"
    )
    result = run_single(
        "cubic", SMALL_CONFIG, duration_s=3.0, seed=2, timeline=timeline
    )
    summary = run_result_summary(result)
    assert summary["timeline"]["label"] == "step"
    [event] = summary["link_events"]
    assert event == {
        "time_s": 1.0,
        "link": "bottleneck",
        "kind": "bandwidth",
        "value": [8e6],
        "description": "bandwidth -> 8 Mbps",
    }
    json.dumps(summary)  # the whole summary stays JSON-serialisable


def test_summary_omits_timeline_keys_for_static_runs():
    result = run_single("cubic", SMALL_CONFIG, duration_s=3.0, seed=2)
    summary = run_result_summary(result)
    assert "timeline" not in summary
    assert "link_events" not in summary


def test_cli_single_accepts_timeline_file(tmp_path, capsys):
    timeline = Timeline(
        (BandwidthStep(at_s=1.0, bandwidth_mbps=5.0),), label="cli-step"
    )
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(timeline.to_dict()))
    rc = cli_main(
        [
            "run", "--protocols", "cubic", "--bandwidth", "10",
            "--buffer", "75", "--duration", "3", "--timeline", str(path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "timeline 'cli-step'" in out
    assert "bandwidth -> 5 Mbps" in out


def test_cli_accepts_preset_timeline(capsys):
    rc = cli_main(
        [
            "run", "--protocols", "cubic", "--bandwidth", "10",
            "--buffer", "75", "--duration", "2", "--timeline", "step-down",
        ]
    )
    assert rc == 0


def test_cli_rejects_unknown_timeline():
    with pytest.raises(SystemExit, match="unknown timeline"):
        cli_main(["run", "--timeline", "no-such-preset", "--duration", "2"])
