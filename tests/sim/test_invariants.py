"""Runtime invariant layer: real bugs must fail loudly, healthy runs must not.

The whole tier-1 suite runs with ``REPRO_CHECK_INVARIANTS=1`` (set in
``tests/conftest.py``); these tests exercise the checker itself —
including a deliberately-broken link that mis-accounts packets, which
the conservation sweep must catch mid-run.
"""

import pytest

from repro.protocols import FixedRateSender
from repro.sim import (
    Dumbbell,
    InvariantChecker,
    InvariantError,
    Link,
    Packet,
    Simulator,
    make_rng,
    mbps,
)


class _Sink:
    def receive(self, packet):
        pass


class _BrokenLink(Link):
    """Silently discards every third packet without counting the drop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._n = 0

    def send(self, packet, dst):
        self._n += 1
        if self._n % 3 == 0:
            self.stats.offered += 1  # offered but never delivered/dropped
            return True
        return super().send(packet, dst)


def _feed(sim, link, sink, count=20, spacing_s=0.001):
    for i in range(count):
        sim.schedule_at(
            spacing_s * i, link.send, Packet(flow_id=1, seq=i, size_bytes=1000), sink
        )


def test_broken_link_conservation_caught_during_run():
    sim = Simulator(check_invariants=True)
    link = _BrokenLink(sim, bandwidth_bps=8e6, delay_s=0.010, name="broken")
    _feed(sim, link, _Sink())
    with pytest.raises(InvariantError, match="packet conservation.*'broken'"):
        sim.run()


def test_healthy_link_passes_final_sweep():
    sim = Simulator(check_invariants=True)
    link = Link(sim, bandwidth_bps=8e6, delay_s=0.010, buffer_bytes=3000)
    # Packets arrive 5x faster than the 1 ms serialization time, so the
    # 3-packet buffer overflows and tail drops must be accounted.
    _feed(sim, link, _Sink(), spacing_s=0.0002)
    sim.run()
    assert sim.invariants.sweeps > 0
    assert link.stats.tail_drops > 0  # drops happened and were accounted


def test_negative_backlog_caught():
    sim = Simulator(check_invariants=True)

    class _BadQueue:
        name = "bad-queue"
        stats = Link(Simulator(check_invariants=False), 1e6, 0.0).stats

        def backlog_bytes(self):
            return -42.0

        def queued_packets(self):
            return 0

    sim.invariants.register_link(_BadQueue())
    with pytest.raises(InvariantError, match="negative or non-finite backlog"):
        sim.invariants.check_now()


def test_clock_regression_caught():
    sim = Simulator(check_invariants=True)
    checker = sim.invariants
    checker.after_event(5.0)
    with pytest.raises(InvariantError, match="clock moved backwards"):
        checker.after_event(4.0)


class _StubFlow:
    flow_id = 7
    start_time = 0.0

    def __init__(self, rtts):
        class _Stats:
            pass

        self.stats = _Stats()
        self.stats.rtts = rtts

    def min_base_rtt(self):
        return 0.030


def test_rtt_below_propagation_floor_caught():
    sim = Simulator(check_invariants=True)
    sim.now = 10.0
    sim.invariants.register_flow(_StubFlow([0.031, 0.010]))
    with pytest.raises(InvariantError, match="RTT sample 0.01"):
        sim.invariants.check_now()


def test_rtt_above_flow_lifetime_caught():
    sim = Simulator(check_invariants=True)
    sim.now = 1.0
    sim.invariants.register_flow(_StubFlow([0.031, 2.0]))
    with pytest.raises(InvariantError, match="RTT sample 2.0"):
        sim.invariants.check_now()


def test_rtt_audit_is_incremental():
    sim = Simulator(check_invariants=True)
    sim.now = 10.0
    rtts = [0.030, 0.040]
    flow = _StubFlow(rtts)
    sim.invariants.register_flow(flow)
    sim.invariants.check_now()
    rtts.append(0.035)
    sim.invariants.check_now()
    assert sim.invariants._rtt_checked[id(flow)] == 3


def test_periodic_sweep_interval():
    sim = Simulator(check_invariants=True)
    sim.invariants.sweep_every_events = 4
    for i in range(10):
        sim.schedule_at(0.001 * i, lambda: None)
    sim.run()
    # 10 events / 4 per sweep = 2 periodic sweeps + 1 final sweep.
    assert sim.invariants.sweeps == 3


def test_invariants_enabled_in_full_scenario():
    sim = Simulator(check_invariants=True)
    dumbbell = Dumbbell(sim, mbps(10.0), 0.020, 200e3, rng=make_rng(1))
    dumbbell.add_flow(FixedRateSender(rate_bps=mbps(12.0)))  # overdriven
    sim.run(until=3.0)
    assert sim.invariants.sweeps > 0
    assert dumbbell.bottleneck.stats.tail_drops > 0


def test_env_var_gate(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert Simulator().invariants is not None
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
    assert Simulator().invariants is None
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS")
    assert Simulator().invariants is None
    # Explicit argument beats the environment.
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert Simulator(check_invariants=False).invariants is None
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
    assert isinstance(Simulator(check_invariants=True).invariants, InvariantChecker)
