"""Integration tests for the experiment runner and reporting."""

import pytest

from repro.harness import (
    EMULAB_DEFAULT,
    FlowSpec,
    LinkConfig,
    format_cdf,
    format_table,
    reset_scale_cache,
    run_flows,
    run_homogeneous,
    run_pair,
    run_single,
    scale,
)
from repro.sim import Simulator


def test_run_single_produces_measurements():
    result = run_single("cubic", EMULAB_DEFAULT, duration_s=10.0)
    assert result.throughput_mbps(0) > 30.0
    assert 0.0 < result.utilization() <= 1.05
    t0, t1 = result.measurement_window()
    assert 0.0 < t0 < t1 == 10.0


def test_run_single_deterministic_per_seed():
    a = run_single("cubic", EMULAB_DEFAULT, duration_s=8.0, seed=5)
    b = run_single("cubic", EMULAB_DEFAULT, duration_s=8.0, seed=5)
    assert a.throughput_mbps(0) == b.throughput_mbps(0)
    assert a.stats[0].rtts == b.stats[0].rtts
    # On a stochastic link (random loss) the seed changes the outcome.
    lossy = EMULAB_DEFAULT.with_loss(0.01)
    c = run_single("cubic", lossy, duration_s=8.0, seed=5)
    d = run_single("cubic", lossy, duration_s=8.0, seed=6)
    assert c.stats[0].rtts != d.stats[0].rtts


def test_run_flows_rejects_empty():
    with pytest.raises(ValueError):
        run_flows([], EMULAB_DEFAULT, duration_s=1.0)


def test_run_flows_rejects_a_start_at_or_after_the_end_before_simulating(monkeypatch):
    # Used to simulate the whole run and then die collecting metrics
    # with a bare "empty measurement window".
    runs = []
    monkeypatch.setattr(Simulator, "run", lambda self, *a, **kw: runs.append(self))
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)]
    with pytest.raises(ValueError) as excinfo:
        run_flows(specs, EMULAB_DEFAULT, duration_s=1.0)
    message = str(excinfo.value)
    assert "flow 1 (proteus-s) starts at 1 s" in message
    assert "duration 1 s" in message
    assert runs == []


def test_run_pair_metrics_are_consistent():
    pair = run_pair("cubic", "proteus-s", EMULAB_DEFAULT, duration_s=15.0)
    assert 0.0 <= pair.primary_throughput_ratio <= 1.3
    assert pair.primary_with_scavenger_mbps <= pair.primary_solo_mbps * 1.3
    assert pair.scavenger_mbps >= 0.0
    assert pair.utilization <= 1.05
    assert pair.primary_rtt_ratio_95th > 0.5


def test_run_pair_parallel_matches_serial():
    # Solo baseline and paired run dispatched concurrently must yield the
    # exact same PairResult as the serial path.
    serial = run_pair("cubic", "proteus-s", EMULAB_DEFAULT, duration_s=8.0, jobs=1)
    parallel = run_pair("cubic", "proteus-s", EMULAB_DEFAULT, duration_s=8.0, jobs=2)
    assert serial == parallel  # PairResult is a dataclass: field-wise ==


def test_scale_env_is_cached_until_reset(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.5")
    reset_scale_cache()
    try:
        assert scale() == 2.5
        # The env var is read once: later mutations are invisible...
        monkeypatch.setenv("REPRO_SCALE", "7")
        assert scale() == 2.5
        # ...until the cache is reset explicitly.
        reset_scale_cache()
        assert scale() == 7.0
    finally:
        monkeypatch.delenv("REPRO_SCALE")
        reset_scale_cache()


def test_run_homogeneous_staggers_starts():
    config = LinkConfig(bandwidth_mbps=40.0, rtt_ms=30.0, buffer_kb=600.0)
    result = run_homogeneous("cubic", 2, config, stagger_s=4.0, measure_s=10.0)
    assert result.specs[0].start_time == 0.0
    assert result.specs[1].start_time == 4.0
    assert result.duration_s == 14.0
    assert len(result.stats) == 2


def test_run_homogeneous_validation():
    with pytest.raises(ValueError):
        run_homogeneous("cubic", 0, EMULAB_DEFAULT)


def test_format_table_alignment_and_errors():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "333" in text
    with pytest.raises(ValueError):
        format_table(["a"], [["1", "2"]])


def test_format_cdf_quantiles():
    points = [(float(i), (i + 1) / 10) for i in range(10)]
    text = format_cdf("x", points)
    assert "p50=" in text
    with pytest.raises(ValueError):
        format_cdf("x", [])
