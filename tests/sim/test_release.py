"""End of life: finished flows and finished runs free themselves.

A completed bounded flow drops what only sending uses
(``Flow.release``), and a ``run_flows`` run closes the network it built
(``Topology.close``), so reference counting alone frees both: nothing a
run built waits for the cyclic garbage collector.  Every case runs with
the collector disabled, so an object that needs it stays alive (the
weakref checks) or is found by the final ``gc.collect()``.
"""

import collections
import gc
import weakref

import pytest

from repro.harness import (
    EMULAB_DEFAULT,
    FlowSpec,
    LinkConfig,
    disable_cache,
    load_topology,
    run_flows,
    run_many,
)
from repro.harness.cache import reset_cache_state
from repro.obs import CollectingTracer
from repro.protocols import make_sender
from repro.sim import Dumbbell, Simulator, mbps
from repro.sim.engine import SimBudgetExceeded
from repro.core.rng import make_rng

CONFIG = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)


@pytest.fixture
def no_gc():
    gc.collect()  # earlier tests' garbage is not this test's
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(params=["0", "1"], ids=["unchecked", "checked"])
def invariants(request, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", request.param)


def _garbage() -> collections.Counter:
    """Type names of the objects only the cyclic collector can free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


# ----------------------------------------------------------------------
# A bounded flow frees itself before the run ends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["cubic", "proteus-s", "bbr"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_a_completed_flow_is_freed_once_its_last_packet_lands(
    no_gc, invariants, protocol, traced
):
    sim = Simulator(tracer=CollectingTracer() if traced else None)
    net = Dumbbell(sim, mbps(20.0), 0.030, 150e3, rng=make_rng(4))
    # An unbounded flow keeps the run (and its heap) going throughout.
    net.add_flow(make_sender("cubic", seed=1))
    done = []
    flow = net.add_flow(
        make_sender(protocol, seed=2),
        size_bytes=60_000,
        start_time=0.5,
        on_complete=lambda flow, now: done.append(now),
    )
    sender = weakref.ref(flow.sender)
    receiver = weakref.ref(flow.receiver)
    flow = weakref.ref(flow)
    sim.run(until=3.0)
    assert done, "the bounded flow never completed"
    # Completion is one delivery; packets sent after the one that
    # completed it land within about a round trip.
    assert done[0] + 0.5 < 3.0
    assert sim.pending() > 0  # the run is still under way
    assert sender() is None and receiver() is None and flow() is None
    sim.run(until=4.0)


def test_a_late_delivery_still_counts_and_is_acked(no_gc):
    # The receiver keeps its flow after completion: deliveries that land
    # afterwards are counted and ACKed as before the release.
    sim = Simulator(check_invariants=True)
    net = Dumbbell(sim, mbps(20.0), 0.030, 150e3, rng=make_rng(4))
    flow = net.add_flow(make_sender("cubic", seed=2), size_bytes=60_000)
    stats = flow.stats
    sim.run(until=2.0)
    assert flow.completed and flow.sender.flow is None
    assert flow.receiver is None and flow.fwd_dst is None
    assert stats.delivered_bytes >= 60_000
    assert net.reverse.stats.offered == net.bottleneck.stats.delivered
    net.assert_conservation()


# ----------------------------------------------------------------------
# A dropped run_flows result leaves nothing for the cyclic collector
# ----------------------------------------------------------------------
def _pair(**kwargs):
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5)]
    return run_flows(specs, CONFIG, duration_s=2.0, seed=1, **kwargs)


RUNS = {
    "exact": lambda: _pair(fidelity="exact"),
    "hybrid": lambda: _pair(fidelity="hybrid"),
    "traced": lambda: _pair(fidelity="exact", tracer=CollectingTracer()),
    "many-shared-core": lambda: run_many(
        "cubic", "proteus-s", EMULAB_DEFAULT, n_flows=60, duration_s=1.5, seed=1
    ),
    "parking-lot-codel": lambda: _pair(topology=load_topology("parking-lot-codel")),
}


@pytest.fixture
def no_cache():
    disable_cache()
    yield
    reset_cache_state()


@pytest.mark.parametrize("name", list(RUNS))
def test_a_dropped_result_leaves_no_cyclic_garbage(no_gc, no_cache, invariants, name):
    result = RUNS[name]()
    assert result.dumbbell is not None  # simulated live, not from a cache
    sim = weakref.ref(result.dumbbell.sim)
    del result
    assert sim() is None
    assert not _garbage()


def test_a_run_its_watchdog_stopped_frees_itself(no_gc, no_cache, invariants):
    try:
        _pair(fidelity="exact", max_events=3000)
    except SimBudgetExceeded:
        pass
    else:
        pytest.fail("the event budget never tripped")
    assert not _garbage()


def test_a_finished_run_stays_a_readable_record(no_cache, invariants):
    result = _pair(topology=load_topology("parking-lot-codel"))
    network = result.dumbbell
    sim = network.sim
    assert sim.pending() == 0 and sim.heap_size() == 0 and sim.invariants is None
    assert sim.events_fired > 0 and sim.now == 2.0
    network.assert_conservation()
    assert sum(link.queued_packets() for link in network.iter_links()) > 0
    assert all(link.stats.offered > 0 for link in network.iter_links())


def test_a_hand_built_simulator_keeps_its_pending_events(no_gc):
    sim = Simulator()
    net = Dumbbell(sim, mbps(20.0), 0.030, 150e3, rng=make_rng(4))
    flow = net.add_flow(make_sender("cubic", seed=1))
    sim.run(until=1.0)
    assert sim.pending() > 0 and flow.sender.flow is flow
    sim.run(until=2.0)  # resumable: the flow keeps sending
    assert flow.stats.last_delivery > 1.0
