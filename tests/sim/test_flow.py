"""Integration tests for flows, receivers, ACK echo, and completion."""

import pytest

from repro.protocols import FixedRateSender, make_sender
from repro.sim import Dumbbell, Simulator, make_rng, mbps


def build(bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=500.0, seed=1):
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(bandwidth_mbps),
        rtt_s=rtt_ms / 1e3,
        buffer_bytes=buffer_kb * 1e3,
        rng=make_rng(seed),
    )
    return sim, dumbbell


def test_fixed_rate_flow_delivers_at_its_rate():
    sim, dumbbell = build()
    sender = FixedRateSender(rate_bps=mbps(2.0))
    flow = dumbbell.add_flow(sender)
    sim.run(until=10.0)
    achieved = flow.stats.throughput_bps(2.0, 10.0) / 1e6
    assert achieved == pytest.approx(2.0, rel=0.05)


def test_rtt_measures_base_rtt_when_uncongested():
    sim, dumbbell = build(rtt_ms=40.0)
    sender = FixedRateSender(rate_bps=mbps(1.0))
    flow = dumbbell.add_flow(sender)
    sim.run(until=5.0)
    base = flow.base_rtt()
    assert base == pytest.approx(0.040)
    # Measured RTT = base + serialization times (small at 1 Mbps).
    assert flow.stats.min_rtt() == pytest.approx(base, abs=0.005)
    assert flow.stats.min_rtt() >= base


def test_finite_flow_completes_and_fires_callback():
    sim, dumbbell = build()
    done = []
    sender = FixedRateSender(rate_bps=mbps(8.0))
    flow = dumbbell.add_flow(
        sender,
        size_bytes=100_000,
        on_complete=lambda f, t: done.append(t),
    )
    sim.run(until=20.0)
    assert flow.completed
    assert len(done) == 1
    assert flow.stats.delivered_bytes >= 100_000
    # Roughly: 100 KB at 8 Mbps = 0.1 s + RTT overheads.
    assert done[0] == pytest.approx(0.1 + 0.04, abs=0.1)


def test_flow_start_time_is_respected():
    sim, dumbbell = build()
    sender = FixedRateSender(rate_bps=mbps(1.0))
    flow = dumbbell.add_flow(sender, start_time=3.0)
    sim.run(until=5.0)
    assert flow.stats.ack_times[0] > 3.0
    assert flow.stats.throughput_bps(0.0, 3.0) == 0.0


def test_on_delivery_callback_sees_all_bytes():
    sim, dumbbell = build()
    got = []
    sender = FixedRateSender(rate_bps=mbps(4.0))
    flow = dumbbell.add_flow(
        sender, size_bytes=50_000, on_delivery=lambda now, n: got.append(n)
    )
    sim.run(until=10.0)
    assert sum(got) == flow.stats.delivered_bytes
    assert flow.stats.delivered_bytes >= 50_000


def test_add_bytes_meters_chunked_data():
    sim, dumbbell = build()
    sender = FixedRateSender(rate_bps=mbps(8.0))
    flow = dumbbell.add_flow(sender, chunked=True)
    flow.add_bytes(10_000)
    sim.run(until=2.0)
    first_batch = flow.stats.delivered_bytes
    assert first_batch >= 10_000
    flow.add_bytes(20_000)
    sim.run(until=4.0)
    assert flow.stats.delivered_bytes >= 30_000
    assert not flow.completed  # chunked flows never auto-complete


def test_add_bytes_rejects_unbounded_and_nonpositive():
    sim, dumbbell = build()
    bounded = dumbbell.add_flow(FixedRateSender(rate_bps=mbps(1.0)), size_bytes=1000)
    unbounded = dumbbell.add_flow(FixedRateSender(rate_bps=mbps(1.0)))
    with pytest.raises(ValueError):
        bounded.add_bytes(0)
    with pytest.raises(RuntimeError):
        unbounded.add_bytes(100)


def test_two_flows_share_the_bottleneck():
    sim, dumbbell = build(bandwidth_mbps=10.0)
    flows = [
        dumbbell.add_flow(FixedRateSender(rate_bps=mbps(8.0))) for _ in range(2)
    ]
    sim.run(until=10.0)
    totals = [f.stats.throughput_bps(5.0, 10.0) / 1e6 for f in flows]
    # Both offered 8 Mbps into a 10 Mbps link: each delivers ~5.
    assert sum(totals) == pytest.approx(10.0, rel=0.05)
    assert totals[0] == pytest.approx(totals[1], rel=0.2)


def test_losses_are_detected_via_ack_gaps():
    sim, dumbbell = build(bandwidth_mbps=5.0, buffer_kb=10.0)
    sender = FixedRateSender(rate_bps=mbps(8.0))  # oversubscribe: tail drops
    flow = dumbbell.add_flow(sender)
    sim.run(until=5.0)
    assert dumbbell.bottleneck.stats.tail_drops > 0
    assert flow.stats.loss_count() > 0


def test_sender_factory_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="unknown protocol"):
        make_sender("not-a-protocol")
