"""Behavioural tests for BBR and BBR-S."""

import pytest

from repro.protocols import BBRScavengerSender, BBRSender, CubicSender
from repro.sim import Dumbbell, Simulator, make_rng, mbps
from repro.sim.engine import SimBudgetExceeded


def build(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0, loss=0.0, seed=1):
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(bandwidth_mbps),
        rtt_s=rtt_ms / 1e3,
        buffer_bytes=buffer_kb * 1e3,
        loss_rate=loss,
        rng=make_rng(seed),
    )
    return sim, dumbbell


def test_bbr_saturates_and_estimates_bandwidth():
    sim, dumbbell = build()
    sender = BBRSender()
    flow = dumbbell.add_flow(sender)
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 45.0
    assert sender.btl_bw_bps == pytest.approx(50e6, rel=0.15)
    assert sender.rtprop_s == pytest.approx(0.030, abs=0.01)


def test_bbr_exits_startup_into_probe_bw():
    sim, dumbbell = build()
    sender = BBRSender()
    dumbbell.add_flow(sender)
    sim.run(until=5.0)
    assert sender.state == "PROBE_BW"


def test_bbr_keeps_queue_bounded():
    """BBR's 2xBDP cap bounds inflation well below loss-based protocols."""
    sim, dumbbell = build(buffer_kb=375.0)
    bbr_flow = dumbbell.add_flow(BBRSender())
    sim.run(until=20.0)
    bbr_p95 = bbr_flow.stats.rtt_percentile(95, 10.0, 20.0)

    sim2, dumbbell2 = build(buffer_kb=375.0)
    cubic_flow = dumbbell2.add_flow(CubicSender())
    sim2.run(until=20.0)
    cubic_p95 = cubic_flow.stats.rtt_percentile(95, 10.0, 20.0)
    assert bbr_p95 < cubic_p95


def test_bbr_tolerates_random_loss():
    """Fig 4: BBR ignores loss; 2% random loss barely dents throughput."""
    sim, dumbbell = build(loss=0.02)
    flow = dumbbell.add_flow(BBRSender())
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 40.0


def test_bbr_probe_rtt_visits_low_inflight():
    sim, dumbbell = build()
    sender = BBRSender()
    dumbbell.add_flow(sender)
    states = set()

    def sample():
        states.add(sender.state)
        if sim.now < 24.0:
            sim.schedule(0.05, sample)

    sim.schedule(1.0, sample)
    sim.run(until=25.0)
    assert "PROBE_RTT" in states


def test_bbr_shares_with_itself():
    sim, dumbbell = build(bandwidth_mbps=40.0, buffer_kb=600.0)
    a = dumbbell.add_flow(BBRSender())
    b = dumbbell.add_flow(BBRSender(), start_time=5.0)
    sim.run(until=60.0)
    thr_a = a.stats.throughput_bps(30.0, 60.0) / 1e6
    thr_b = b.stats.throughput_bps(30.0, 60.0) / 1e6
    assert thr_a + thr_b > 35.0
    assert min(thr_a, thr_b) / max(thr_a, thr_b) > 0.4


def test_bbr_s_yields_to_bbr():
    """Fig 14: BBR-S collapses its rate when a primary BBR joins."""
    sim, dumbbell = build()
    scavenger = dumbbell.add_flow(BBRScavengerSender())
    primary = dumbbell.add_flow(BBRSender(), start_time=10.0)
    sim.run(until=50.0)
    primary_thr = primary.stats.throughput_bps(30.0, 50.0) / 1e6
    scavenger_thr = scavenger.stats.throughput_bps(30.0, 50.0) / 1e6
    assert primary_thr > 3.0 * scavenger_thr


def test_bbr_s_alone_performs_like_bbr():
    sim, dumbbell = build()
    flow = dumbbell.add_flow(BBRScavengerSender())
    sim.run(until=20.0)
    assert flow.stats.throughput_bps(10.0, 20.0) / 1e6 > 40.0


def test_bbr_s_fair_with_bbr_s():
    """Fig 14: two BBR-S flows share the bottleneck fairly."""
    sim, dumbbell = build()
    a = dumbbell.add_flow(BBRScavengerSender())
    b = dumbbell.add_flow(BBRScavengerSender(), start_time=5.0)
    sim.run(until=60.0)
    thr_a = a.stats.throughput_bps(30.0, 60.0) / 1e6
    thr_b = b.stats.throughput_bps(30.0, 60.0) / 1e6
    assert min(thr_a, thr_b) / max(thr_a, thr_b) > 0.4


@pytest.mark.xfail(
    strict=True,
    raises=SimBudgetExceeded,
    reason=(
        "Known BBR bug: with noise on both directions the FIFO guard "
        "delivers ACKs 1e-9 s apart, so _delivery_rate_sample divides a "
        "few KB by a ~1e-9 s span and btl_bw_bps jumps to ~1e13 bps; "
        "tens of thousands of tail drops then land on one timestamp and "
        "the run hits its event budget at t = 0.153 s.  Fix: take the "
        "delivery-rate interval as the larger of the send interval and "
        "the ACK interval (this changes BBR results)."
    ),
)
def test_bbr_under_noise_and_loss_stays_inside_its_event_budget():
    from repro.harness import FlowSpec, LinkConfig, run_flows

    run_flows(
        [FlowSpec("bbr"), FlowSpec("proteus-s", start_time=0.5)],
        LinkConfig(
            50.0, 30.0, 375.0,
            loss_rate=0.02, noise_severity=2.0, reverse_noise_severity=1.0,
        ),
        duration_s=4.0,
        seed=25656,
        max_events=50_000,
    )
