"""Topology specs through the harness: caching, scale runs, acceptance.

The acceptance scenario from the graph-topology work: a Proteus-S
scavenger crossing several congested parking-lot hops end to end must
yield to per-hop cross traffic while every hop's packet accounting
conserves and the trace stream carries the hop tags.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.devtools import stats_digest
from repro.harness import (
    TOPOLOGIES,
    DelayStep,
    FlowSpec,
    GilbertLoss,
    LinkConfig,
    LossStep,
    Outage,
    Timeline,
    TopologySpec,
    load_topology,
    pmap,
    run_flows,
    run_many,
    run_result_summary,
    run_single,
    run_streaming,
    topology_from_dict,
)
from repro.harness.cache import enable_cache, reset_cache_state
from repro.obs import CollectingTracer
from repro.sim import TopologyError

SMALL_CONFIG = LinkConfig(bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=75.0)


@pytest.fixture
def cache(tmp_path):
    cache = enable_cache(tmp_path / "cache")
    yield cache
    reset_cache_state()


# ----------------------------------------------------------------------
# Spec layer: presets, serialisation, validation
# ----------------------------------------------------------------------
def test_topology_presets_roundtrip_through_json():
    for name in TOPOLOGIES:
        spec = TOPOLOGIES[name]()
        assert spec.label == name
        document = json.loads(json.dumps(spec.to_dict()))
        assert topology_from_dict(document) == spec


def test_topology_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec(preset="ring")
    with pytest.raises(ValueError):
        TopologySpec(n_hops=0)
    with pytest.raises(ValueError):
        TopologySpec(aqm="fq-codel")
    with pytest.raises(ValueError):
        TopologySpec(preset="multi-dumbbell", core_mbps=-1.0)
    with pytest.raises(ValueError):
        topology_from_dict({"kind": "timeline"})


def test_load_topology_preset_and_file(tmp_path):
    assert load_topology("parking-lot") == TOPOLOGIES["parking-lot"]()
    spec = TopologySpec(preset="parking-lot", n_hops=4, aqm="red", label="deep")
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert load_topology(str(path)) == spec
    with pytest.raises(ValueError, match="unknown topology"):
        load_topology("no-such-preset")


# ----------------------------------------------------------------------
# Result cache: the topology is part of the key
# ----------------------------------------------------------------------
def test_topology_participates_in_cache_key(cache):
    specs = [FlowSpec("cubic")]
    lot = TOPOLOGIES["parking-lot"]()
    core = TOPOLOGIES["shared-core"]()
    run_flows(specs, SMALL_CONFIG, duration_s=3.0, seed=7, topology=lot)
    run_flows(specs, SMALL_CONFIG, duration_s=3.0, seed=7)  # dumbbell: own key
    run_flows(specs, SMALL_CONFIG, duration_s=3.0, seed=7, topology=core)
    assert (cache.hits, cache.misses) == (0, 3)
    warm = run_flows(specs, SMALL_CONFIG, duration_s=3.0, seed=7, topology=lot)
    assert (cache.hits, cache.misses) == (1, 3)
    # The rebuilt result keeps the declarative spec without a live graph.
    assert warm.dumbbell is None
    assert warm.topology == lot


def test_topology_cache_rebuild_matches_live_run(cache):
    specs = [
        FlowSpec("proteus-s"),
        FlowSpec("cubic", start_time=0.5, route=("n1", "n2")),
    ]
    spec = TOPOLOGIES["parking-lot-codel"]()
    cold = run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=3, topology=spec)
    warm = run_flows(specs, SMALL_CONFIG, duration_s=4.0, seed=3, topology=spec)
    assert stats_digest(warm.stats) == stats_digest(cold.stats)
    assert warm.specs[1].route == ("n1", "n2")


def test_flow_route_participates_in_cache_key(cache):
    spec = TOPOLOGIES["parking-lot"]()
    run_flows(
        [FlowSpec("cubic", route=("n0", "n1"))],
        SMALL_CONFIG, duration_s=3.0, seed=7, topology=spec,
    )
    run_flows(
        [FlowSpec("cubic", route=("n1", "n2"))],
        SMALL_CONFIG, duration_s=3.0, seed=7, topology=spec,
    )
    assert (cache.hits, cache.misses) == (0, 2)


# ----------------------------------------------------------------------
# Acceptance: a scavenger across multiple congested hops
# ----------------------------------------------------------------------
LOSSY_NOISY = LinkConfig(
    bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=75.0,
    loss_rate=0.01, noise_severity=0.5, reverse_noise_severity=0.5,
)


def _link_counters(result) -> list:
    return [
        (link.name, [getattr(link.stats, slot) for slot in link.stats.__slots__])
        for link in result.dumbbell.iter_links()
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("config", [SMALL_CONFIG, LOSSY_NOISY], ids=["clean", "lossy-noisy"])
def test_no_topology_is_the_dumbbell_preset(config, seed):
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5)]
    runs = [
        run_flows(specs, config, duration_s=2.0, seed=seed, topology=topology)
        for topology in (None, TopologySpec(preset="dumbbell"))
    ]
    classic, preset = runs
    assert stats_digest(classic.stats) == stats_digest(preset.stats)
    assert _link_counters(classic) == _link_counters(preset)
    assert classic.metrics_snapshot == preset.metrics_snapshot


def test_classic_dumbbell_rejects_any_other_route():
    # Only ("src", "dst") crosses the bottleneck.
    run_flows([FlowSpec("cubic", route=("src", "dst"))], SMALL_CONFIG, duration_s=0.5)
    for route in [("dst", "src"), ("n0", "n1")]:
        with pytest.raises(TopologyError):
            run_flows([FlowSpec("cubic", route=route)], SMALL_CONFIG, duration_s=0.5)
        with pytest.raises(TopologyError):
            run_streaming(
                [], "cubic", SMALL_CONFIG, duration_s=0.5,
                background=[FlowSpec("cubic", route=route)],
            )


def test_parking_lot_scavenger_yields_across_congested_hops():
    tracer = CollectingTracer()
    specs = [
        FlowSpec("proteus-s"),  # n0 -> n3: crosses every hop
        FlowSpec("cubic", route=("n0", "n1")),
        FlowSpec("cubic", route=("n1", "n2")),
    ]
    result = run_flows(
        specs,
        LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=100.0),
        duration_s=8.0,
        seed=1,
        topology=TOPOLOGIES["parking-lot"](),
        tracer=tracer,
    )
    lot = result.dumbbell
    # Per-hop packet accounting holds on every link in the graph.
    lot.assert_conservation()
    # At least two hops saw real contention (queue overflow drops).
    congested = [
        name for name in ("hop0", "hop1", "hop2")
        if lot.links[name].stats.tail_drops + lot.links[name].stats.aqm_drops > 0
    ]
    assert len(congested) >= 2
    # The scavenger yields on both contended hops: each primary takes the
    # lion's share of its bottleneck while the end-to-end scavenger
    # settles for the leftovers.
    scavenger, primary_a, primary_b = (
        s.throughput_bps(4.0, 8.0) for s in result.stats
    )
    assert primary_a > 4 * scavenger
    assert primary_b > 4 * scavenger
    # Trace events are tagged with the hop's source node.
    nodes = {
        event.fields.get("node")
        for event in tracer.events
        if event.kind.startswith("link.") and event.link.startswith("hop")
    }
    assert {"n0", "n1", "n2"} <= nodes


# ----------------------------------------------------------------------
# Regressions: delay steps on an event-based (AQM) bottleneck
# ----------------------------------------------------------------------
def test_delay_increase_on_aqm_hop_keeps_the_rtt_floor():
    # The RTT-floor invariant (armed suite-wide) must use the smallest
    # delay the DynamicLink ever had: samples from before the step sit
    # below the new base RTT.  Raised InvariantError before the link
    # classes shared ``min_delay_s`` tracking.
    result = run_flows(
        [FlowSpec("cubic")],
        LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=150.0),
        duration_s=4.0,
        topology=TOPOLOGIES["dumbbell-codel"](),
        timeline=Timeline((DelayStep(at_s=2.0, delay_ms=60.0),)),
    )
    bottleneck = result.dumbbell.links["bottleneck"]
    assert bottleneck.min_delay_s < bottleneck.delay_s
    assert result.stats[0].min_rtt() < 0.060


def test_delay_decrease_on_aqm_hop_does_not_reorder():
    # Packets dequeued after the step must not overtake those already
    # propagating at the old delay: the sender reads any reordering as
    # loss (13 phantom losses here before the FIFO guard was made
    # unconditional) although no link dropped anything.
    result = run_flows(
        [FlowSpec("vegas")],
        LinkConfig(bandwidth_mbps=20.0, rtt_ms=60.0, buffer_kb=1500.0),
        duration_s=3.0,
        topology=TOPOLOGIES["dumbbell-codel"](),
        timeline=Timeline((DelayStep(at_s=2.0, delay_ms=2.0),)),
    )
    link_drops = sum(
        link.stats.tail_drops + link.stats.aqm_drops + link.stats.random_losses
        for link in result.dumbbell.links.values()
    )
    assert link_drops == 0
    assert len(result.stats[0].loss_times) == link_drops


def test_burst_loss_on_aqm_hop_takes_effect_and_a_loss_step_clears_it():
    # The timeline driver writes ``link.loss_model``; the DynamicLink
    # used to draw from ``loss_rate`` only, so the step was logged as
    # applied and dropped nothing (0 of 4723 offered, where the analytic
    # bottleneck loses 127 of 1933 under the same timeline).
    def bottleneck_after(*steps):
        result = run_flows(
            [FlowSpec("cubic")],
            LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=150.0),
            duration_s=3.0,
            topology=TOPOLOGIES["dumbbell-codel"](),
            timeline=Timeline(steps),
        )
        assert len(result.link_events) == len(steps)  # each logged as applied
        result.dumbbell.assert_conservation()  # invariants are armed too
        return result.dumbbell.links["bottleneck"]

    burst = GilbertLoss(at_s=0.5, p_enter_bad=0.05, p_exit_bad=0.3)
    lossy = bottleneck_after(burst)
    assert lossy.loss_model is not None
    assert lossy.stats.random_losses > 0

    cleared = bottleneck_after(burst, LossStep(at_s=1.0, loss_rate=0.0))
    assert cleared.loss_model is None
    assert 0 < cleared.stats.random_losses < lossy.stats.random_losses


def test_outage_on_aqm_hop_refuses_arrivals_and_conserves_packets():
    # The TimelineDriver used to reject "down" events on an event-based
    # link, so ``--topology dumbbell-codel --timeline mobility-trace``
    # died before the run started.
    result = run_flows(
        [FlowSpec("cubic")],
        LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=150.0),
        duration_s=3.0,
        topology=TOPOLOGIES["dumbbell-codel"](),
        timeline=Timeline((Outage(start_s=1.0, end_s=1.5),)),
    )
    assert [event.kind for event in result.link_events] == ["down", "up"]
    result.dumbbell.assert_conservation()
    bottleneck = result.dumbbell.links["bottleneck"]
    assert bottleneck.stats.outage_drops > 0
    assert not bottleneck.is_down()
    # Delivery resumes once the outage ends.
    assert result.stats[0].throughput_bps(2.0, 3.0) > 0


def test_summary_reports_topology_and_per_link_stats():
    result = run_single(
        "cubic", SMALL_CONFIG, duration_s=3.0, seed=2,
        topology=TOPOLOGIES["parking-lot"](),
    )
    summary = run_result_summary(result)
    assert summary["topology"]["preset"] == "parking-lot"
    by_name = {entry["link"]: entry for entry in summary["links"]}
    assert by_name["hop0"]["node"] == "n0"
    assert by_name["hop0"]["offered"] >= by_name["hop0"]["delivered"]
    assert {"tail_drops", "aqm_drops"} <= set(by_name["hop0"])


# ----------------------------------------------------------------------
# Scale: ~1000 short primaries against a few scavengers
# ----------------------------------------------------------------------
def test_run_many_deterministic_and_short_flows_complete():
    config = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)
    a = run_many("cubic", "proteus-s", config, n_flows=60, n_scavengers=2,
                 duration_s=6.0, seed=5)
    b = run_many("cubic", "proteus-s", config, n_flows=60, n_scavengers=2,
                 duration_s=6.0, seed=5)
    other = run_many("cubic", "proteus-s", config, n_flows=60, n_scavengers=2,
                     duration_s=6.0, seed=6)
    assert stats_digest(a.stats) == stats_digest(b.stats)
    assert stats_digest(a.stats) != stats_digest(other.stats)
    assert len(a.stats) == 62
    # Arrivals are confined to the first 80% of the run so the tail can
    # drain: the vast majority of short flows complete.
    completed = sum(1 for s in a.stats[2:] if s.delivered_bytes >= 50_000)
    assert completed >= 54
    assert a.topology == TOPOLOGIES["shared-core"]()


def test_run_many_validation():
    config = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)
    with pytest.raises(ValueError):
        run_many("cubic", "proteus-s", config, n_flows=0)
    with pytest.raises(ValueError):
        run_many("cubic", "proteus-s", config, n_scavengers=-1)


_MANY_CONFIG = LinkConfig(bandwidth_mbps=40.0, rtt_ms=30.0, buffer_kb=300.0)


def _many_digest(seed: int) -> str:
    """Module-level (hence picklable) experiment for the parallel gate."""
    result = run_many(
        "cubic", "proteus-s", _MANY_CONFIG,
        n_flows=40, n_scavengers=2, duration_s=4.0, seed=seed,
    )
    return stats_digest(result.stats)


def test_topology_runs_identical_across_worker_counts():
    # REPRO_JOBS=4 vs serial: graph scenarios stay bit-reproducible.
    seeds = [3, 4, 5]
    serial = pmap(_many_digest, seeds, jobs=1)
    parallel = pmap(_many_digest, seeds, jobs=4)
    assert parallel == serial
    assert len(set(serial)) == len(seeds)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_cli_single_accepts_topology_preset(capsys):
    rc = cli_main(
        ["run", "--protocols", "cubic", "--duration", "2",
         "--topology", "parking-lot"]
    )
    assert rc == 0
    assert "cubic" in capsys.readouterr().out


def test_cli_rejects_unknown_topology():
    with pytest.raises(SystemExit):
        cli_main(["run", "--topology", "no-such-topology", "--duration", "2"])


def test_cli_many_smoke(capsys):
    rc = cli_main(
        ["many", "--flows", "30", "--scavengers", "2", "--duration", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "short flows" in out
    assert "completed" in out


def test_forwarders_are_built_per_flow_and_direction_not_per_packet(monkeypatch):
    import repro.sim.flow as flow_mod

    built = []

    class CountedHop(flow_mod._Hop):
        __slots__ = ()

        def __init__(self, link, dst):
            built.append(link.name)
            super().__init__(link, dst)

    monkeypatch.setattr(flow_mod, "_Hop", CountedHop)
    specs = [
        FlowSpec("cubic"),  # n0 -> n3: three links each way
        FlowSpec("proteus-s", start_time=0.1),
        FlowSpec("cubic", route=("n1", "n2")),  # one link each way: no forwarder
    ]
    counts = {}
    for duration_s in (0.5, 2.0):
        del built[:]
        result = run_flows(
            specs, SMALL_CONFIG, duration_s=duration_s, seed=3,
            topology=load_topology("parking-lot-codel"),
        )
        lot = result.dumbbell
        routes = [spec.route or lot.default_endpoints(i) for i, spec in enumerate(specs)]
        expected = sum(
            len(lot.path(a, b).links) - 1 + len(lot.path(b, a).links) - 1
            for a, b in routes
        )
        assert len(built) == expected == 8
        counts[duration_s] = sum(stats.packets_sent for stats in result.stats)
    assert counts[2.0] > 2 * counts[0.5] > 0
