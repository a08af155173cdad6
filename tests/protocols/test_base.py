"""Unit tests for the sender framework: loss detection, RTO, pacing."""

import pytest

from repro.adversary.genome import HOSTILE_PROTOCOLS
from repro.protocols import PROTOCOL_NAMES, FixedRateSender, WindowSender, make_sender
from repro.protocols.base import AckInfo, MIN_RTO_S
from repro.sim import Dumbbell, Simulator, make_rng, mbps


class RecordingWindowSender(WindowSender):
    """Window sender that records its event stream for assertions."""

    def __init__(self):
        super().__init__("recording")
        self.acks: list[AckInfo] = []
        self.losses: list[int] = []
        self.timeouts = 0

    def on_ack(self, info):
        self.acks.append(info)

    def on_loss(self, seq, sent_time):
        self.losses.append(seq)

    def on_timeout(self):
        self.timeouts += 1


def build(bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=100.0, loss=0.0, seed=1):
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


def test_window_sender_respects_cwnd():
    sim, dumbbell = build()
    sender = RecordingWindowSender()
    sender.cwnd = 4.0
    dumbbell.add_flow(sender)
    sim.run(until=0.02)  # less than one RTT: nothing acked yet
    assert sender.inflight_packets() == 4


def test_acks_carry_correct_rtt():
    sim, dumbbell = build(rtt_ms=40.0)
    sender = RecordingWindowSender()
    sender.cwnd = 1.0
    dumbbell.add_flow(sender)
    sim.run(until=1.0)
    assert sender.acks
    first = sender.acks[0]
    # RTT = base + serialization (1500 B @ 10 Mbps = 1.2 ms) + ack time.
    assert first.rtt == pytest.approx(0.0412, abs=0.002)
    assert first.one_way_delay < first.rtt
    assert first.nbytes == 1500


def test_random_loss_is_detected_by_gap():
    sim, dumbbell = build(loss=0.05)
    sender = RecordingWindowSender()
    sender.cwnd = 20.0
    flow = dumbbell.add_flow(sender)
    sim.run(until=10.0)
    assert sender.losses, "random losses must surface as on_loss events"
    assert flow.stats.loss_count() == len(sender.losses)


def test_lost_bytes_are_requeued_for_finite_flows():
    sim, dumbbell = build(loss=0.05)
    sender = RecordingWindowSender()
    sender.cwnd = 20.0
    flow = dumbbell.add_flow(sender, size_bytes=300_000)
    sim.run(until=30.0)
    assert flow.completed
    assert flow.stats.delivered_bytes >= 300_000
    assert sender.losses  # losses occurred and were retransmitted


def test_rto_fires_when_all_packets_lost():
    # A 1-packet buffer with heavy random loss can strand the tail.
    sim, dumbbell = build(loss=0.9, buffer_kb=3.0, seed=3)
    sender = RecordingWindowSender()
    sender.cwnd = 4.0
    dumbbell.add_flow(sender)
    sim.run(until=20.0)
    assert sender.timeouts >= 1


def test_rto_interval_floor():
    sender = RecordingWindowSender()
    assert sender._rto_interval() == 1.0  # no RTT estimate yet
    sender.srtt = 0.01
    sender.rttvar = 0.001
    assert sender._rto_interval() == MIN_RTO_S


def test_srtt_tracks_rtt():
    sim, dumbbell = build(rtt_ms=40.0)
    sender = RecordingWindowSender()
    sender.cwnd = 2.0
    dumbbell.add_flow(sender)
    sim.run(until=5.0)
    assert sender.srtt == pytest.approx(0.0415, abs=0.003)
    assert sender.min_rtt <= sender.srtt


def test_pause_and_resume_rate_sender():
    sim, dumbbell = build()
    sender = FixedRateSender(rate_bps=mbps(4.0))
    flow = dumbbell.add_flow(sender)
    sim.run(until=2.0)
    sender.pause()
    sim.run(until=4.0)
    at_pause = flow.stats.delivered_bytes
    sim.run(until=6.0)
    # Nothing delivered while paused (allow in-flight drainage margin).
    assert flow.stats.delivered_bytes - at_pause <= 3 * 1500
    sender.resume()
    sim.run(until=8.0)
    assert flow.stats.delivered_bytes > at_pause + 100_000


def test_rate_sender_inflight_cap():
    sim, dumbbell = build(bandwidth_mbps=100.0)
    sender = FixedRateSender(rate_bps=mbps(50.0))
    sender.inflight_cap = 5
    dumbbell.add_flow(sender)
    sim.run(until=0.02)
    assert sender.inflight_packets() <= 5


def test_stop_cancels_transmission():
    sim, dumbbell = build()
    sender = FixedRateSender(rate_bps=mbps(4.0))
    flow = dumbbell.add_flow(sender)
    sim.run(until=1.0)
    sender.stop()
    sent_at_stop = flow.stats.packets_sent
    sim.run(until=3.0)
    assert flow.stats.packets_sent == sent_at_stop


def test_stale_acks_after_timeout_are_ignored():
    """ACKs for packets already declared lost must not crash or double-count."""
    sim, dumbbell = build(rtt_ms=600.0)  # RTT > min RTO
    sender = RecordingWindowSender()
    sender.cwnd = 2.0
    flow = dumbbell.add_flow(sender)
    sim.run(until=10.0)
    # With a 600 ms RTT and no srtt, initial RTO (1s) may fire spuriously.
    # The invariant: acked + lost never exceeds sent.
    assert len(sender.acks) + len(sender.losses) <= flow.stats.packets_sent


def _sends_after_rate_step(use_repace):
    """Send times around a 1 -> 50 Mbps step at t=0.1 (no repace vs repace)."""
    from repro.obs import CollectingTracer
    from repro.protocols.base import RateSender

    tracer = CollectingTracer()
    sim = Simulator(tracer=tracer)
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(100.0),
        rtt_s=0.04,
        buffer_bytes=100e3,
        rng=make_rng(1),
    )
    sender = RateSender("slow", initial_rate_bps=mbps(1.0))  # ~12 ms/packet

    def step_up():
        sender.set_rate(mbps(50.0))
        if use_repace:
            sender.repace()

    dumbbell.add_flow(sender)
    sim.schedule_at(0.100, step_up)
    sim.run(until=0.2)
    return [
        e.time_s
        for e in tracer.events
        if e.kind == "link.enqueue" and e.link == "bottleneck" and e.time_s > 0.1
    ]


def test_set_rate_mid_interval_leaves_at_most_one_stale_interval():
    """Pins the audited rate-change behaviour (see RateSender.repace).

    The pacing loop recomputes its interval only after each tick, so a
    ``set_rate`` call mid-interval lets exactly the already-scheduled
    interval elapse at the old (1 Mbps, ~12 ms) pace before the new
    (50 Mbps, ~0.24 ms) rate takes over — never more than one stale
    interval.
    """
    sends = _sends_after_rate_step(use_repace=False)
    # The first send after the change rides the stale schedule: up to one
    # old interval away (12 ms + 2% jitter), and on the old pace it is
    # *later* than a fresh fast interval.
    assert 0.0 < sends[0] - 0.1 <= 0.0123
    # Every subsequent gap is at the new pace: exactly zero further
    # stale (old-pace) intervals.
    new_interval = 1500 * 8.0 / mbps(50.0)
    gaps = [b - a for a, b in zip(sends, sends[1:])]
    assert gaps and all(gap <= 1.05 * new_interval for gap in gaps)


def test_repace_applies_new_rate_immediately():
    sends = _sends_after_rate_step(use_repace=True)
    new_interval = 1500 * 8.0 / mbps(50.0)
    # No stale interval at all: the first post-change send is immediate
    # and every gap is already at the 50 Mbps pace.
    assert sends[0] - 0.1 <= 1.05 * new_interval
    gaps = [b - a for a, b in zip(sends, sends[1:])]
    assert gaps and all(gap <= 1.05 * new_interval for gap in gaps)


def test_repace_respects_paused_and_stopped_states():
    from repro.protocols.base import RateSender

    sim, dumbbell = build()
    sender = RateSender("rate", initial_rate_bps=mbps(4.0))
    flow = dumbbell.add_flow(sender)
    sim.run(until=0.5)
    sender.pause()
    sim.run(until=0.6)
    sender.repace()  # paused: must not restart the pacing loop
    assert sender._tick_event is None
    sent_paused = flow.stats.packets_sent
    sim.run(until=1.0)
    assert flow.stats.packets_sent == sent_paused
    sender.resume()
    sim.run(until=1.5)
    sender.stop()
    sender.repace()  # stopped: same
    assert sender._tick_event is None


def test_fixed_rate_sender_rate_stays_immutable():
    sender = FixedRateSender(rate_bps=mbps(4.0))
    with pytest.raises(RuntimeError):
        sender.set_rate(mbps(8.0))


@pytest.mark.parametrize(
    "proto", [name for name in PROTOCOL_NAMES if name not in HOSTILE_PROTOCOLS]
)
def test_every_protocol_moves_data(proto):
    sim, dumbbell = build(bandwidth_mbps=20.0)
    sender = make_sender(proto)
    flow = dumbbell.add_flow(sender)
    sim.run(until=8.0)
    achieved = flow.stats.throughput_bps(4.0, 8.0) / 1e6
    assert achieved > 1.0, f"{proto} failed to use an idle 20 Mbps link"
