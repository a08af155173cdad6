"""Tests for AQM disciplines, the event-based link, and rate variation."""

import random

import pytest

from repro.harness import LinkConfig, TopologySpec
from repro.obs import CollectingTracer
from repro.protocols import CubicSender, FixedRateSender, make_sender
from repro.sim import (
    CoDelDiscipline,
    DynamicLink,
    HeadDropDiscipline,
    LinkEvent,
    Packet,
    RandomDropDiscipline,
    REDDiscipline,
    Simulator,
    TailDropDiscipline,
    TimelineDriver,
    cellular_events,
    make_rng,
)


class TimedSink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


# ----------------------------------------------------------------------
# Disciplines in isolation
# ----------------------------------------------------------------------
def test_taildrop_discipline_limits_bytes():
    disc = TailDropDiscipline(buffer_bytes=3000)
    rng = random.Random(0)
    pkt = Packet(1, 1, size_bytes=1500)
    assert not disc.on_enqueue(pkt, 0, 0.0, rng)
    assert not disc.on_enqueue(pkt, 1500, 0.0, rng)
    assert disc.on_enqueue(pkt, 2000, 0.0, rng)
    assert not disc.on_dequeue(pkt, 1.0, 0.0, rng)


def test_red_drops_probabilistically_between_thresholds():
    disc = REDDiscipline(
        buffer_bytes=100_000, min_th_bytes=10_000, max_th_bytes=50_000, max_p=0.5,
        weight=1.0,  # track instantaneous queue for a deterministic test
    )
    rng = random.Random(1)
    pkt = Packet(1, 1, size_bytes=1000)
    # Below min threshold: never drops.
    assert not any(disc.on_enqueue(pkt, 5_000, 0.0, rng) for _ in range(100))
    # Between thresholds: drops some fraction.
    mid_drops = sum(disc.on_enqueue(pkt, 30_000, 0.0, rng) for _ in range(1000))
    assert 100 < mid_drops < 500
    # At/above max threshold: always drops.
    assert all(disc.on_enqueue(pkt, 60_000, 0.0, rng) for _ in range(10))


def test_red_parameter_validation():
    with pytest.raises(ValueError):
        REDDiscipline(buffer_bytes=0)
    with pytest.raises(ValueError):
        REDDiscipline(buffer_bytes=1000, min_th_bytes=900, max_th_bytes=800)


def test_red_idle_decay_regression():
    """Pins the Floyd & Jacobson idle fix: ``avg`` must decay while the
    queue sits empty, not freeze at its last busy-period value."""
    disc = REDDiscipline(
        buffer_bytes=100_000, min_th_bytes=10_000, max_th_bytes=50_000, max_p=0.5,
        weight=0.5, idle_packet_s=0.001,
    )
    rng = random.Random(7)
    pkt = Packet(1, 1, size_bytes=1000)
    # Busy period: pump the EWMA well above max_th (certain-drop region).
    for _ in range(30):
        disc.on_enqueue(pkt, 60_000, 0.0, rng)
    assert disc.avg_bytes > 50_000
    # Queue drains and stays idle for a full second (1000 idle packet
    # slots at idle_packet_s=1ms): avg must decay to ~zero, so the first
    # arrival of the next busy period is never dropped.
    disc.on_idle(1.0)
    assert not disc.on_enqueue(pkt, 0, 2.0, rng)
    assert disc.avg_bytes < 10_000


def test_red_idle_decay_scales_with_idle_time():
    disc = REDDiscipline(
        buffer_bytes=100_000, min_th_bytes=10_000, max_th_bytes=50_000,
        weight=0.1, idle_packet_s=0.01,
    )
    rng = random.Random(7)
    pkt = Packet(1, 1, size_bytes=1000)
    for _ in range(50):
        disc.on_enqueue(pkt, 40_000, 0.0, rng)
    busy_avg = disc.avg_bytes
    # One idle packet slot decays by exactly one EWMA step (m == 1).
    disc.on_idle(1.0)
    disc.on_enqueue(pkt, 0, 1.01, rng)
    expected = busy_avg * (1.0 - 0.1) ** 1
    # The enqueue itself then folds in the (empty) instantaneous queue.
    expected = expected + 0.1 * (0 - expected)
    assert disc.avg_bytes == pytest.approx(expected)


def test_codel_drops_on_persistent_sojourn():
    disc = CoDelDiscipline(buffer_bytes=1e6, target_s=0.005, interval_s=0.05)
    rng = random.Random(2)
    pkt = Packet(1, 1, size_bytes=1500)
    # Short sojourn: never drops, resets state.
    assert not disc.on_dequeue(pkt, 0.001, 0.0, rng)
    # Persistent above-target sojourn: dropping starts after interval.
    drops = [disc.on_dequeue(pkt, 0.02, t * 0.01, rng) for t in range(20)]
    assert not drops[0]
    assert any(drops)
    # Recovery: one below-target sojourn ends the dropping state.
    assert not disc.on_dequeue(pkt, 0.001, 1.0, rng)


def test_codel_reentry_resumes_drop_count():
    """Pins the reference re-entry rule: a dropping episode that resumes
    within ``interval`` of the last scheduled drop continues at
    ``count - 2`` (fast convergence on a persistent flow) instead of
    restarting from 1."""
    disc = CoDelDiscipline(buffer_bytes=1e6, target_s=0.005, interval_s=0.1)
    rng = random.Random(0)
    pkt = Packet(1, 1, size_bytes=1500)
    high = 0.02  # sojourn persistently above target
    disc.on_dequeue(pkt, high, 0.0, rng)            # arms first-above at 0.1
    assert disc.on_dequeue(pkt, high, 0.10, rng)    # enter dropping: count=1
    assert disc.on_dequeue(pkt, high, 0.20, rng)    # count=2
    assert disc.on_dequeue(pkt, high, 0.28, rng)    # count=3
    assert disc.on_dequeue(pkt, high, 0.34, rng)    # count=4, next drop ~0.39
    assert disc._count == 4
    # One good dequeue ends the episode without erasing its history.
    assert not disc.on_dequeue(pkt, 0.001, 0.35, rng)
    # Quick re-entry (dropping resumes within interval of the last
    # scheduled drop): count restarts from 4 - 2 = 2, not 1.
    assert not disc.on_dequeue(pkt, high, 0.36, rng)  # re-arms at 0.46
    assert disc.on_dequeue(pkt, high, 0.46, rng)
    assert disc._count == 2


def test_codel_long_gap_resets_drop_count():
    disc = CoDelDiscipline(buffer_bytes=1e6, target_s=0.005, interval_s=0.1)
    rng = random.Random(0)
    pkt = Packet(1, 1, size_bytes=1500)
    high = 0.02
    disc.on_dequeue(pkt, high, 0.0, rng)
    for t in (0.10, 0.20, 0.28, 0.34):
        assert disc.on_dequeue(pkt, high, t, rng)
    assert not disc.on_dequeue(pkt, 0.001, 0.35, rng)
    # A long recovery (>> interval past the last scheduled drop) means
    # the congestion episode truly ended: restart from count=1.
    assert not disc.on_dequeue(pkt, high, 5.0, rng)
    assert disc.on_dequeue(pkt, high, 5.1, rng)
    assert disc._count == 1


# ----------------------------------------------------------------------
# DynamicLink behaviour
# ----------------------------------------------------------------------
def test_dynamic_link_serializes_like_fifo():
    sim = Simulator()
    link = DynamicLink(sim, rate_bps=8e6, delay_s=0.0, discipline=TailDropDiscipline(1e6))
    sink = TimedSink(sim)
    for seq in range(3):
        link.send(Packet(1, seq, size_bytes=1000), sink)
    sim.run()
    times = [t for t, _ in sink.arrivals]
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_drained_aqm_run_leaves_no_heap_entries():
    # Service and delivery events are fire-and-forget heap entries; each
    # must fire exactly once, none stranded once the queue has drained.
    sim = Simulator()
    link = DynamicLink(
        sim, rate_bps=8e6, delay_s=0.01,
        discipline=CoDelDiscipline(20_000, target_s=0.002, interval_s=0.01),
    )
    sink = TimedSink(sim)
    for seq in range(400):
        sim.schedule(seq * 0.0009, link.send, Packet(1, seq, size_bytes=1000), sink)
    sim.run()
    stats = link.stats
    assert stats.aqm_drops > 0 and stats.tail_drops > 0
    assert stats.offered == 400
    assert len(sink.arrivals) == stats.delivered
    assert stats.delivered + stats.aqm_drops + stats.tail_drops == 400
    assert link.queued_packets() == 0 and sim.pending() == 0
    assert sim.heap_size() == 0
    seqs = [packet.seq for _, packet in sink.arrivals]
    assert seqs == sorted(seqs)


def test_dynamic_link_step_rate_changes_service_speed():
    def one_packet_at(t):
        # 8 Mbps for the first second, then 0.8 Mbps.
        sim = Simulator()
        link = DynamicLink(sim, rate_bps=8e6, delay_s=0.0, name="l")
        TimelineDriver(sim, {"l": link}, [LinkEvent(1.0, "l", "bandwidth", (0.8e6,))])
        sink = TimedSink(sim)
        sim.schedule(t, link.send, Packet(1, 1, size_bytes=1000), sink)
        sim.run()
        return sink.arrivals[-1][0] - t

    fast = one_packet_at(0.0)
    slow = one_packet_at(2.0)
    assert slow == pytest.approx(10 * fast, rel=0.01)


def test_dynamic_link_rate_validation():
    with pytest.raises(ValueError):
        DynamicLink(Simulator(), rate_bps=0.0, delay_s=0.0)
    link = DynamicLink(Simulator(), rate_bps=1e6, delay_s=0.0)
    with pytest.raises(ValueError):
        link.set_bandwidth_bps(-1e6)


def test_cellular_rate_varies_but_stays_bounded():
    events = cellular_events("l", mean_bps=10e6, duration_s=20.0, period_s=1.0,
                             depth=0.5, seed=3)
    # One bandwidth event per epoch, at each epoch's start.
    assert [e.time_s for e in events] == [float(k) for k in range(20)]
    assert {(e.link, e.kind) for e in events} == {("l", "bandwidth")}
    rates = [e.value[0] for e in events]
    assert all(5e6 <= r <= 15e6 for r in rates)
    assert len(set(round(r) for r in rates)) > 5  # actually varies
    # Same seed, same walk; a longer run only appends epochs.
    longer = cellular_events("l", 10e6, 30.0, period_s=1.0, depth=0.5, seed=3)
    assert longer[:20] == events


def test_cellular_rate_validation():
    with pytest.raises(ValueError):
        cellular_events("l", 0.0, 10.0)


def test_dynamic_link_outage_refuses_arrivals_and_serves_its_queue():
    tracer = CollectingTracer()
    sim = Simulator(tracer=tracer)
    link = DynamicLink(sim, rate_bps=8e5, delay_s=0.0, name="hop")  # 15 ms/packet
    sink = TimedSink(sim)
    for seq in range(3):
        link.send(Packet(1, seq, size_bytes=1500), sink)
    link.set_down(True)
    assert link.is_down()
    assert link.send(Packet(1, 3, size_bytes=1500), sink) is False
    sim.run()
    # What was queued before the outage still arrives.
    assert [pkt.seq for _, pkt in sink.arrivals] == [0, 1, 2]
    assert link.stats.outage_drops == 1 and link.stats.offered == 4
    drops = [e for e in tracer.to_dicts() if e["kind"] == "link.drop"]
    assert [(e["reason"], e["seq"]) for e in drops] == [("outage", 3)]
    link.set_down(False)
    assert link.send(Packet(1, 4, size_bytes=1500), sink) is True


def _overfill_link(discipline, n_packets=5, tracer=None, node=""):
    """Blast ``n_packets`` at a slow 2-packet-deep link; returns
    (link, delivered seqs)."""
    sim = Simulator(tracer=tracer)
    link = DynamicLink(
        sim,
        rate_bps=8e5,  # 15 ms per 1500-byte packet: all sends queue
        delay_s=0.0,
        discipline=discipline,
        rng=make_rng(1),
        name="hop",
    )
    link.node = node
    sink = TimedSink(sim)
    for seq in range(n_packets):
        link.send(Packet(1, seq, size_bytes=1500), sink)
    sim.run()
    return link, [pkt.seq for _, pkt in sink.arrivals]


def test_head_drop_evicts_oldest_queued():
    # Buffer holds 2 packets: one in service + one queued.  Each later
    # arrival evicts the oldest *queued* packet (never the in-service
    # head), so the survivors are the first and the last packet.
    link, seqs = _overfill_link(HeadDropDiscipline(buffer_bytes=3000))
    assert seqs == [0, 4]
    assert link.stats.aqm_drops == 3
    assert link.stats.tail_drops == 0


def test_random_drop_evicts_queued_victim():
    link, seqs = _overfill_link(RandomDropDiscipline(buffer_bytes=3000))
    # The in-service packet is never a victim; exactly one queued packet
    # survives alongside it.
    assert seqs[0] == 0
    assert len(seqs) == 2
    assert link.stats.aqm_drops == 3
    assert link.stats.tail_drops == 0


def test_taildrop_refuses_arrivals_without_evicting():
    link, seqs = _overfill_link(TailDropDiscipline(buffer_bytes=3000))
    # Tail drop keeps the oldest packets and refuses the new arrivals.
    assert seqs == [0, 1]
    assert link.stats.tail_drops == 3
    assert link.stats.aqm_drops == 0


def test_dynamic_link_drop_accounting_conserves_packets():
    for discipline in (
        TailDropDiscipline(3000),
        HeadDropDiscipline(3000),
        RandomDropDiscipline(3000),
    ):
        link, _ = _overfill_link(discipline)
        stats = link.stats
        assert stats.offered == 5
        assert (
            stats.delivered + stats.tail_drops + stats.aqm_drops
            + stats.random_losses + link.queued_packets()
        ) == stats.offered


def test_dynamic_link_trace_carries_node_and_drop_reason():
    tracer = CollectingTracer()
    _overfill_link(HeadDropDiscipline(buffer_bytes=3000), tracer=tracer, node="n2")
    events = tracer.to_dicts()
    drops = [e for e in events if e["kind"] == "link.drop"]
    assert drops and all(e["node"] == "n2" for e in drops)
    assert {e["reason"] for e in drops} == {"aqm"}
    # Every link.* event carries the hop tag.
    assert all(e["node"] == "n2" for e in events if e["kind"].startswith("link."))


# ----------------------------------------------------------------------
# End-to-end: flows over a DynamicLink bottleneck
# ----------------------------------------------------------------------
def make_aqm_dumbbell(aqm, bandwidth_mbps=20.0, buffer_kb=500.0, seed=1):
    sim = Simulator()
    config = LinkConfig(bandwidth_mbps=bandwidth_mbps, rtt_ms=30.0, buffer_kb=buffer_kb)
    dumbbell = TopologySpec(preset="dumbbell", aqm=aqm).build(sim, config, make_rng(seed))
    return sim, dumbbell, dumbbell.bottleneck


def test_cubic_over_codel_keeps_queue_short():
    sim, dumbbell, bottleneck = make_aqm_dumbbell("codel")
    assert isinstance(bottleneck.discipline, CoDelDiscipline)
    flow = dumbbell.add_flow(CubicSender())
    sim.run(until=20.0)
    # CoDel holds sojourn near target: p95 RTT stays far below the
    # tail-drop case (500 KB at 20 Mbps would be +200 ms).
    p95 = flow.stats.rtt_percentile(95, 10.0, 20.0)
    assert p95 < 0.080
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 15.0
    # CoDel's dequeue drops are discipline decisions, not buffer
    # overflows: they land in aqm_drops, never tail_drops.
    assert bottleneck.stats.aqm_drops > 0


def test_proteus_over_red_performs():
    sim, dumbbell, _ = make_aqm_dumbbell("red")
    flow = dumbbell.add_flow(make_sender("proteus-p"))
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 12.0


def test_fixed_rate_over_cellular_link_tracks_capacity():
    sim, dumbbell, _ = make_aqm_dumbbell(
        "taildrop", bandwidth_mbps=10.0, buffer_kb=200.0, seed=5
    )
    TimelineDriver(
        sim,
        dumbbell.links,
        cellular_events("bottleneck", mean_bps=10e6, duration_s=20.0, period_s=1.0,
                        depth=0.5, seed=4),
    )
    flow = dumbbell.add_flow(FixedRateSender(rate_bps=20e6))
    sim.run(until=20.0)
    achieved = flow.stats.throughput_bps(5.0, 20.0) / 1e6
    # Overdriven link delivers roughly the (time-varying) capacity mean.
    assert 7.0 < achieved < 12.0
