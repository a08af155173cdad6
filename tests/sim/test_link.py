"""Unit tests for the link model: serialization, queueing, drops, noise."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import CollectingTracer
from repro.sim import GaussianJitter, Link, Packet, Simulator


class TimedSink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, bw=8e6, delay=0.01, buffer_bytes=float("inf"), **kw):
    return Link(sim, bandwidth_bps=bw, delay_s=delay, buffer_bytes=buffer_bytes, **kw)


def test_single_packet_delivery_time():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.01)  # 1 MB/s
    sink = TimedSink(sim)
    packet = Packet(flow_id=1, seq=1, size_bytes=1000)
    link.send(packet, sink)
    sim.run()
    # 1000 bytes at 1 MB/s = 1 ms serialization + 10 ms propagation.
    assert sink.arrivals[0][0] == pytest.approx(0.011)


def test_back_to_back_packets_queue_behind_each_other():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0)
    sink = TimedSink(sim)
    for seq in range(3):
        link.send(Packet(1, seq, size_bytes=1000), sink)
    sim.run()
    times = [t for t, _ in sink.arrivals]
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_tail_drop_when_buffer_full():
    sim = Simulator()
    # Buffer of 2000 bytes: two packets queue, subsequent ones drop.
    link = make_link(sim, bw=8e6, delay=0.0, buffer_bytes=2000)
    sink = TimedSink(sim)
    results = [link.send(Packet(1, seq, size_bytes=1000), sink) for seq in range(5)]
    sim.run()
    assert results[0] is True  # in service immediately (empty backlog)
    assert sum(results) == len(sink.arrivals)
    assert link.stats.tail_drops == 5 - sum(results)
    assert link.stats.tail_drops >= 2


def test_backlog_drains_over_time():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0, buffer_bytes=4000)
    sink = TimedSink(sim)
    for seq in range(4):
        link.send(Packet(1, seq, size_bytes=1000), sink)
    assert link.backlog_bytes() == pytest.approx(4000)
    sim.run(until=0.002)
    assert link.backlog_bytes() == pytest.approx(2000)
    # Space freed: a new packet is accepted again.
    assert link.send(Packet(1, 99, size_bytes=1000), sink)


def test_queueing_delay_matches_backlog():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0)
    sink = TimedSink(sim)
    for seq in range(10):
        link.send(Packet(1, seq, size_bytes=1000), sink)
    assert link.queueing_delay() == pytest.approx(0.010)


def test_random_loss_drops_fraction():
    sim = Simulator()
    link = make_link(
        sim, bw=800e6, delay=0.0, loss_rate=0.3, rng=random.Random(7)
    )
    sink = TimedSink(sim)
    n = 5000
    for seq in range(n):
        link.send(Packet(1, seq, size_bytes=100), sink)
    sim.run()
    loss_fraction = link.stats.random_losses / n
    assert 0.25 < loss_fraction < 0.35
    assert len(sink.arrivals) == n - link.stats.random_losses


def test_noise_never_reorders_deliveries():
    sim = Simulator()
    link = make_link(
        sim,
        bw=8e6,
        delay=0.005,
        noise=GaussianJitter(std_s=0.020),
        rng=random.Random(3),
    )
    sink = TimedSink(sim)
    for seq in range(200):
        sim.schedule(seq * 0.001, link.send, Packet(1, seq, size_bytes=500), sink)
    sim.run()
    seqs = [p.seq for _, p in sink.arrivals]
    assert seqs == sorted(seqs)
    times = [t for t, _ in sink.arrivals]
    assert times == sorted(times)


def test_max_backlog_counts_accepted_packet():
    # Regression: peak occupancy includes the packet that just arrived,
    # so a single send into an empty link already records its size.
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0)
    sink = TimedSink(sim)
    link.send(Packet(1, 0, size_bytes=1000), sink)
    assert link.stats.max_backlog_bytes == pytest.approx(1000)


def test_bandwidth_change_preserves_byte_backlog():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0, buffer_bytes=4000)
    sink = TimedSink(sim)
    for seq in range(4):
        link.send(Packet(1, seq, size_bytes=1000), sink)
    assert link.backlog_bytes() == pytest.approx(4000)
    assert link.queueing_delay() == pytest.approx(0.004)
    link.set_bandwidth_bps(4e6)  # halve the rate mid-backlog
    # Bytes are invariant under the remap; the drain time doubles.
    assert link.backlog_bytes() == pytest.approx(4000)
    assert link.queueing_delay() == pytest.approx(0.008)
    assert link.stats.rate_changes == 1
    # The buffer bound still holds against the remapped backlog.
    assert not link.send(Packet(1, 99, size_bytes=1000), sink)
    assert link.stats.tail_drops == 1


def test_fifo_preserved_across_rate_increase():
    sim = Simulator()
    link = make_link(sim, bw=1e6, delay=0.0)
    sink = TimedSink(sim)

    def burst(first_seq):
        for seq in range(first_seq, first_seq + 5):
            link.send(Packet(1, seq, size_bytes=1000), sink)

    burst(0)  # queued at the slow rate
    sim.schedule(0.001, link.set_bandwidth_bps, 100e6)
    sim.schedule(0.0011, burst, 5)  # fast packets behind slow deliveries
    sim.run()
    assert len(sink.arrivals) == 10
    seqs = [p.seq for _, p in sink.arrivals]
    assert seqs == sorted(seqs)
    times = [t for t, _ in sink.arrivals]
    assert times == sorted(times)


def test_outage_window_drops_offered_packets():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0)
    sink = TimedSink(sim)
    assert link.send(Packet(1, 0, size_bytes=1000), sink)
    link.set_down(True)
    assert link.is_down()
    assert not link.send(Packet(1, 1, size_bytes=1000), sink)
    assert link.stats.outage_drops == 1
    link.set_down(False)
    assert link.send(Packet(1, 2, size_bytes=1000), sink)
    sim.run()
    # The pre-outage packet was already past the serializer and arrives.
    assert [p.seq for _, p in sink.arrivals] == [0, 2]


def test_delay_change_applies_to_new_packets_and_tracks_min():
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.010)
    sink = TimedSink(sim)
    link.send(Packet(1, 0, size_bytes=1000), sink)
    link.set_delay_s(0.050)
    link.send(Packet(1, 1, size_bytes=1000), sink)
    sim.run()
    assert sink.arrivals[0][0] == pytest.approx(0.011)
    assert sink.arrivals[1][0] == pytest.approx(0.052)
    # min_delay_s keeps the floor for the RTT invariant.
    assert link.min_delay_s == pytest.approx(0.010)
    link.set_delay_s(0.002)
    assert link.min_delay_s == pytest.approx(0.002)


def test_stateful_loss_model_replaces_bernoulli_draw():
    class AlwaysLose:
        def is_lost(self, rng):
            return True

    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0, loss_model=AlwaysLose())
    sink = TimedSink(sim)
    assert link.send(Packet(1, 0, size_bytes=1000), sink)
    # The lost packet still consumed transmitter time...
    assert link.queueing_delay() == pytest.approx(0.001)
    sim.run()
    # ...but never arrives.
    assert sink.arrivals == []
    assert link.stats.random_losses == 1


def test_invalid_link_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0, delay_s=0.01)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=1e6, delay_s=-1)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=1e6, delay_s=0.0, loss_rate=1.0)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=50),
    bw_mbps=st.floats(min_value=1.0, max_value=1000.0),
)
def test_property_work_conservation(sizes, bw_mbps):
    """Total delivery time of a burst equals sum of serialization times."""
    sim = Simulator()
    link = make_link(sim, bw=bw_mbps * 1e6, delay=0.0)
    sink = TimedSink(sim)
    for seq, size in enumerate(sizes):
        link.send(Packet(1, seq, size_bytes=size), sink)
    sim.run()
    expected = sum(s * 8.0 / (bw_mbps * 1e6) for s in sizes)
    assert sink.arrivals[-1][0] == pytest.approx(expected, rel=1e-9)
    assert len(sink.arrivals) == len(sizes)


@settings(max_examples=20, deadline=None)
@given(buffer_packets=st.integers(min_value=1, max_value=20))
def test_property_drops_bounded_by_buffer(buffer_packets):
    """An instantaneous burst into a k-packet buffer accepts exactly k.

    The analytic queue counts the in-service packet's unsent bytes as
    backlog, so the buffer limit covers in-service + queued data.
    """
    sim = Simulator()
    link = make_link(sim, bw=8e6, delay=0.0, buffer_bytes=buffer_packets * 1000)
    sink = TimedSink(sim)
    n = buffer_packets + 10
    accepted = sum(
        1 if link.send(Packet(1, seq, size_bytes=1000), sink) else 0
        for seq in range(n)
    )
    sim.run()
    assert accepted == buffer_packets
    assert link.stats.tail_drops == n - accepted


def test_delivery_behind_the_clock_is_clamped_with_one_past_event():
    # Link.send pushes its own heap entry; a delivery time that noise put
    # behind the clock must still take the engine's clamp, not the push.
    class Early:
        def sample(self, now, rng):
            return -1.0

    tracer = CollectingTracer()
    sim = Simulator(tracer=tracer)
    link = make_link(sim, bw=8e6, delay=0.01, noise=Early())
    sink = TimedSink(sim)
    sim.schedule(2.0, link.send, Packet(1, 1, size_bytes=1000), sink)
    sim.run()
    assert [t for t, _ in sink.arrivals] == [2.0]
    past = [ev for ev in tracer.events if ev.kind == "sim.schedule.past"]
    assert len(past) == 1
    assert past[0].fields["scheduled_s"] == pytest.approx(2.0 + 0.001 + 0.01 - 1.0)
