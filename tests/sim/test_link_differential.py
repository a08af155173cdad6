"""Differential test: analytic ``Link`` vs ``DynamicLink(TailDropDiscipline)``.

The two link classes model the same FIFO tail-drop pipe — one in closed
form, one with an explicit queue and per-packet service events.  Offered
the same packet stream they must accept and drop the same packets and
deliver them at the same times: the equivalence evidence ROADMAP's "one
queue model" item asks for before the classes are ever merged.

The stream is shaped so both models *should* agree exactly:

* packets are one size and the buffer is a whole number of them, so the
  analytic byte backlog (which counts only the unserialized part of the
  packet in service) and the explicit queue (which counts it whole)
  reach the same accept/drop verdicts;
* bandwidth and delay steps land in idle gaps, because a queued packet
  gets its rate and delay at enqueue in ``Link`` and at dequeue in
  ``DynamicLink``;
* arrival gaps are random, so no arrival ties with a service completion.
"""

from __future__ import annotations

import pytest

from repro.core.rng import Rng
from repro.sim import DynamicLink, Link, Packet, Simulator, TailDropDiscipline

PKT_BYTES = 1500
BUFFER_BYTES = 8 * PKT_BYTES
RATE_BPS = 12e6  # 1 ms per packet
DELAY_S = 0.010

# (start_s, end_s, min_gap_s, max_gap_s): arrival phases, idle in between.
PHASES = (
    (0.000, 0.100, 1.2e-3, 2.0e-3),  # under-subscribed at 12 Mbps
    (0.100, 0.200, 0.3e-3, 0.7e-3),  # ~2x over-subscribed: tail drops
    (0.250, 0.320, 0.15e-3, 0.35e-3),  # ~2x over-subscribed at 24 Mbps
    (0.3352, 0.360, 0.8e-3, 1.5e-3),  # right after the delay decrease
    (0.460, 0.520, 0.5e-3, 1.0e-3),  # ~2.7x over-subscribed at 6 Mbps
)
# (time_s, setter, value), each inside an idle gap (queue drained).
STEPS = (
    (0.230, "set_bandwidth_bps", 24e6),
    (0.240, "set_delay_s", 0.040),  # delay step up
    # Step down while the last burst is still propagating at 40 ms: the
    # next packets would overtake it without the FIFO guard.
    (0.335, "set_delay_s", 0.002),
    (0.450, "set_bandwidth_bps", 6e6),
)
DELAY_DOWN_S = 0.335


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals: list[tuple[float, int]] = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet.seq))


def _offered_times() -> list[float]:
    rng = Rng("link-differential")
    times = []
    for start, end, lo, hi in PHASES:
        t = start
        while t < end:
            times.append(t)
            t += rng.uniform(lo, hi)
    return times


def _drive(make_link):
    """Offer the stream to one link; returns (accepted, dropped, arrivals, link)."""
    sim = Simulator(check_invariants=True)
    link = make_link(sim)
    sink = _Sink(sim)
    accepted: set[int] = set()
    dropped: set[int] = set()

    def offer(seq: int) -> None:
        packet = Packet(flow_id=1, seq=seq, size_bytes=PKT_BYTES, sent_time=sim.now)
        (accepted if link.send(packet, sink) else dropped).add(seq)

    for seq, t in enumerate(_offered_times()):
        sim.schedule_at(t, offer, seq)
    for t, setter, value in STEPS:
        sim.schedule_at(t, getattr(link, setter), value)
    sim.run()  # ends with the invariant checker's final conservation sweep
    return accepted, dropped, sink.arrivals, link


def test_link_and_taildrop_dynamic_link_agree_packet_for_packet():
    a_acc, a_drop, a_arr, analytic = _drive(
        lambda sim: Link(sim, RATE_BPS, DELAY_S, buffer_bytes=BUFFER_BYTES)
    )
    e_acc, e_drop, e_arr, event_based = _drive(
        lambda sim: DynamicLink(
            sim, RATE_BPS, DELAY_S, discipline=TailDropDiscipline(BUFFER_BYTES)
        )
    )

    # Same verdict for every offered packet, and both verdicts occur.
    assert a_acc == e_acc
    assert a_drop == e_drop
    assert a_acc and a_drop
    for stat in ("offered", "delivered", "tail_drops", "rate_changes"):
        assert getattr(analytic.stats, stat) == getattr(event_based.stats, stat)
    assert analytic.stats.tail_drops == len(a_drop)
    assert analytic.stats.max_backlog_bytes == pytest.approx(
        event_based.stats.max_backlog_bytes, abs=PKT_BYTES
    )

    # Same packets in the same (FIFO) order at the same times.
    assert [seq for _, seq in a_arr] == [seq for _, seq in e_arr] == sorted(a_acc)
    for (t_analytic, seq), (t_event, _) in zip(a_arr, e_arr):
        assert t_analytic == pytest.approx(t_event, abs=1e-9), seq
    for arrivals in (a_arr, e_arr):
        times = [t for t, _ in arrivals]
        assert times == sorted(times)

    # Both link classes keep the RTT floor and FIFO order across the
    # delay steps: the floor is the smallest delay ever set, and the
    # first packets after the decrease were held behind the last
    # 40 ms-delay delivery instead of arriving ~3 ms after their send.
    assert analytic.min_delay_s == event_based.min_delay_s == 0.002
    offered = _offered_times()
    held = [
        t for t, seq in a_arr
        if DELAY_DOWN_S < offered[seq] < DELAY_DOWN_S + 0.010
    ]
    assert held and min(held) > 0.355
