"""Unit tests for time-varying link dynamics (:mod:`repro.sim.dynamics`)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DynamicsError,
    GilbertElliott,
    Link,
    LinkEvent,
    Packet,
    Simulator,
    TimelineDriver,
)


class TimedSink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, bw=8e6, delay=0.0, buffer_bytes=float("inf"), **kw):
    return Link(sim, bandwidth_bps=bw, delay_s=delay, buffer_bytes=buffer_bytes, **kw)


# ----------------------------------------------------------------------
# LinkEvent
# ----------------------------------------------------------------------
def test_event_validation():
    with pytest.raises(ValueError):
        LinkEvent(-1.0, "bottleneck", "bandwidth", (1e6,))
    with pytest.raises(ValueError):
        LinkEvent(0.0, "bottleneck", "teleport")


def test_event_describe_covers_all_kinds():
    cases = [
        (LinkEvent(0.0, "l", "bandwidth", (10e6,)), "bandwidth -> 10 Mbps"),
        (LinkEvent(0.0, "l", "delay", (0.025,)), "delay -> 25 ms"),
        (LinkEvent(0.0, "l", "down"), "outage begins"),
        (LinkEvent(0.0, "l", "up"), "outage ends"),
        (LinkEvent(0.0, "l", "loss", (0.01,)), "loss rate -> 0.01"),
    ]
    for event, expected in cases:
        assert event.describe() == expected
    gilbert = LinkEvent(0.0, "l", "gilbert", (0.01, 0.25, 0.0, 0.5))
    assert "gilbert-elliott" in gilbert.describe()


# ----------------------------------------------------------------------
# Gilbert-Elliott burst loss
# ----------------------------------------------------------------------
def test_gilbert_validates_parameters():
    with pytest.raises(ValueError):
        GilbertElliott(p_enter_bad=1.5, p_exit_bad=0.5)
    with pytest.raises(ValueError):
        GilbertElliott(p_enter_bad=0.1, p_exit_bad=0.0)  # inescapable bad state


def test_gilbert_stationary_loss_rate():
    chain = GilbertElliott(p_enter_bad=0.01, p_exit_bad=0.24)
    assert chain.stationary_loss_rate() == pytest.approx(0.01 / 0.25)
    mixed = GilbertElliott(
        p_enter_bad=0.1, p_exit_bad=0.3, loss_good=0.01, loss_bad=0.5
    )
    assert mixed.stationary_loss_rate() == pytest.approx(
        0.25 * 0.5 + 0.75 * 0.01
    )


def test_gilbert_empirical_rate_and_burstiness():
    rng = random.Random(11)
    chain = GilbertElliott(p_enter_bad=0.02, p_exit_bad=0.2)
    n = 200_000
    losses = sum(chain.is_lost(rng) for _ in range(n))
    assert losses / n == pytest.approx(chain.stationary_loss_rate(), rel=0.1)
    # Correlated runs, not i.i.d.: mean burst length ~ 1 / p_exit_bad.
    assert chain.bad_entries > 0
    assert losses / chain.bad_entries == pytest.approx(1.0 / 0.2, rel=0.15)


def test_gilbert_deterministic_given_seed():
    def run(seed):
        rng = random.Random(seed)
        chain = GilbertElliott(0.05, 0.3, loss_bad=0.8)
        return [chain.is_lost(rng) for _ in range(500)]

    assert run(3) == run(3)
    assert run(3) != run(4)


# ----------------------------------------------------------------------
# TimelineDriver
# ----------------------------------------------------------------------
def test_driver_rejects_unknown_link():
    sim = Simulator()
    link = make_link(sim)
    with pytest.raises(DynamicsError, match="unknown link"):
        TimelineDriver(sim, {"bottleneck": link}, [LinkEvent(1.0, "uplink", "down")])


def test_driver_rejects_wrong_arity():
    sim = Simulator()
    link = make_link(sim)
    with pytest.raises(DynamicsError, match="expects 1 value"):
        TimelineDriver(
            sim, {"bottleneck": link}, [LinkEvent(1.0, "bottleneck", "bandwidth")]
        )


def test_driver_applies_events_as_clock_reaches_them():
    sim = Simulator()
    link = make_link(sim, bw=8e6)
    driver = TimelineDriver(
        sim,
        {"bottleneck": link},
        [
            LinkEvent(2.0, "bottleneck", "delay", (0.030,)),
            LinkEvent(1.0, "bottleneck", "bandwidth", (2e6,)),
            LinkEvent(3.0, "bottleneck", "loss", (0.1,)),
        ],
    )
    sim.run(until=2.5)
    assert link.bandwidth_bps == pytest.approx(2e6)
    assert link.delay_s == pytest.approx(0.030)
    assert link.loss_rate == 0.0  # the t=3 event has not fired yet
    sim.run(until=4.0)
    assert link.loss_rate == pytest.approx(0.1)
    # The applied log is the firing order, not the construction order.
    assert [event.time_s for event in driver.applied] == [1.0, 2.0, 3.0]


def test_outage_events_toggle_link():
    sim = Simulator()
    link = make_link(sim)
    TimelineDriver(
        sim,
        {"bottleneck": link},
        [LinkEvent(1.0, "bottleneck", "down"), LinkEvent(2.0, "bottleneck", "up")],
    )
    sim.run(until=1.5)
    assert link.is_down()
    sim.run(until=2.5)
    assert not link.is_down()


def test_loss_event_clears_stateful_model():
    sim = Simulator()
    link = make_link(sim)
    TimelineDriver(
        sim,
        {"bottleneck": link},
        [
            LinkEvent(1.0, "bottleneck", "gilbert", (0.01, 0.25, 0.0, 1.0)),
            LinkEvent(2.0, "bottleneck", "loss", (0.05,)),
        ],
    )
    sim.run(until=1.5)
    assert isinstance(link.loss_model, GilbertElliott)
    sim.run(until=2.5)
    assert link.loss_model is None
    assert link.loss_rate == pytest.approx(0.05)


# ----------------------------------------------------------------------
# Conservation under arbitrary bandwidth timelines
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    changes=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=0.5),
            st.floats(min_value=1.0, max_value=100.0),
        ),
        max_size=6,
    ),
    sizes=st.lists(
        st.integers(min_value=40, max_value=1500), min_size=1, max_size=60
    ),
)
def test_property_conservation_under_bandwidth_timeline(changes, sizes):
    """offered == delivered + drops + losses under any bandwidth timeline.

    Runs with the invariant checker on (conftest), which re-verifies the
    accounting and the buffer bound at every event.
    """
    sim = Simulator()
    link = make_link(sim, bw=8e6, buffer_bytes=8000)
    sink = TimedSink(sim)
    events = [
        LinkEvent(at_s, "bottleneck", "bandwidth", (mbps * 1e6,))
        for at_s, mbps in changes
    ]
    TimelineDriver(sim, {"bottleneck": link}, events)

    accepted_bytes = []

    def offer(packet):
        if link.send(packet, sink):
            accepted_bytes.append(packet.size_bytes)

    for seq, size in enumerate(sizes):
        sim.schedule_fast_at(seq * 0.0007, offer, Packet(1, seq, size_bytes=size))
    sim.run()

    stats = link.stats
    assert stats.offered == len(sizes)
    assert stats.offered == stats.delivered + stats.tail_drops + stats.random_losses
    assert len(sink.arrivals) == stats.delivered
    assert sum(p.size_bytes for _, p in sink.arrivals) == sum(accepted_bytes)
    # FIFO survives every remap.
    seqs = [p.seq for _, p in sink.arrivals]
    assert seqs == sorted(seqs)
    assert stats.rate_changes == len(changes)
