"""Fidelity unit and integration tests.

Covers the :mod:`repro.sim.fidelity` configuration surface, the
all-or-nothing per-link eligibility rule of hybrid mode, exact mode's
walkable-link rule (a tracer walks nothing, a random link walks, a
reverse link fed two ways does not), the run-horizon rule, the
``sim.fastforward`` tracepoints, and the virtual-event accounting.
The statistical closeness of hybrid results to packet-exact on paper
scenarios is pinned separately in ``tests/test_fidelity_acceptance.py``.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from repro.harness import EMULAB_DEFAULT, FlowSpec, run_flows
from repro.sim import EXACT, HYBRID, Fidelity, activate_fastforward, resolve_fidelity
from repro.sim.engine import Simulator
from repro.sim.flow import Flow, Path
from repro.sim.link import Link


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
def test_fidelity_mode_validation():
    with pytest.raises(ValueError):
        Fidelity(mode="fluid")


def test_resolve_fidelity_passthrough_and_strings():
    assert resolve_fidelity(EXACT) is EXACT
    assert resolve_fidelity(HYBRID) is HYBRID
    assert resolve_fidelity("exact") is EXACT
    assert resolve_fidelity("hybrid") is HYBRID
    with pytest.raises(ValueError):
        resolve_fidelity("approximate")


def test_resolve_fidelity_env(monkeypatch):
    monkeypatch.delenv("REPRO_FIDELITY", raising=False)
    assert resolve_fidelity(None) is EXACT
    monkeypatch.setenv("REPRO_FIDELITY", "hybrid")
    assert resolve_fidelity(None) is HYBRID
    monkeypatch.setenv("REPRO_FIDELITY", "exact")
    assert resolve_fidelity(None) is EXACT


def test_fidelity_cache_keys_distinguish_every_knob():
    # ``mode`` is the only knob left.
    assert EXACT.key() != HYBRID.key()


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
class _NullSender:
    """Minimal SenderProtocol stand-in for wiring tests."""

    def bind(self, sim, flow):
        self.flow = flow

    def start(self):
        pass

    def receive(self, ack):
        pass

    def on_data_available(self):
        pass

    def stop(self):
        pass


class _PacedSender(_NullSender):
    """Stand-in for a sender that can fast-forward paced bursts."""

    ff_supports_burst = True
    ff_burst_armed = False


def _wire(sim, n_flows: int, sizes=None, **link_kwargs):
    fwd = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000, **link_kwargs)
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flows = []
    for i in range(n_flows):
        size = sizes[i] if sizes else None
        flows.append(
            Flow(
                sim,
                _PacedSender(),
                Path([fwd]),
                Path([rev]),
                flow_id=i + 1,
                size_bytes=size,
            )
        )
    return flows


def test_exact_mode_collapses_but_arms_no_burst():
    sim = Simulator(check_invariants=False, fidelity=EXACT)  # not REPRO_FIDELITY's
    flows = _wire(sim, 2)
    assert activate_fastforward(sim, flows) == 2
    assert all(f.ff_collapse for f in flows)
    assert not any(f.sender.ff_burst_armed for f in flows)
    # Bursts are what hybrid adds.
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    flows = _wire(sim, 2)
    assert activate_fastforward(sim, flows) == 2
    assert all(f.sender.ff_burst_armed for f in flows)


def test_a_tracer_vetoes_exact_mode_collapse():
    # A traced exact run is the event chain the untraced one must equal.
    from repro.obs import CollectingTracer

    sim = Simulator(check_invariants=False, fidelity=EXACT, tracer=CollectingTracer())
    flows = _wire(sim, 2)
    assert activate_fastforward(sim, flows) == 0
    assert not any(f.ff_collapse for f in flows)


@pytest.mark.parametrize("hazard", ["loss", "noise"])
def test_a_random_link_collapses_and_equals_its_traced_run(hazard):
    # Every link draws from its own stream, and the walk admits each
    # packet at its delivery time in the order the chain admits it, so a
    # lossy or noisy link draws what the chain draws.
    from repro.devtools import stats_digest
    from repro.harness import LinkConfig
    from repro.obs import CollectingTracer
    from repro.sim.noise import GaussianJitter

    kwargs = {"loss_rate": 0.01} if hazard == "loss" else {"noise": GaussianJitter(0.001)}
    sim = Simulator(check_invariants=False, fidelity=EXACT)
    assert activate_fastforward(sim, _wire(sim, 2, **kwargs)) == 2
    # Hybrid collapses them too, as its approximation.
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    flows = _wire(sim, 2, **kwargs)
    assert activate_fastforward(sim, flows) == 2
    assert all(f.ff_collapse for f in flows)
    config = (
        LinkConfig(50.0, 30.0, 375.0, loss_rate=0.01)
        if hazard == "loss"
        else LinkConfig(50.0, 30.0, 375.0, noise_severity=1.0, reverse_noise_severity=1.0)
    )
    untraced, traced = (
        run_flows(SPECS, config, duration_s=3.0, seed=7, fidelity=EXACT, tracer=tracer)
        for tracer in (None, CollectingTracer())
    )
    assert stats_digest(untraced.stats) == stats_digest(traced.stats)
    for name, link in untraced.dumbbell.links.items():
        twin = traced.dumbbell.links[name].stats
        for slot in type(link.stats).__slots__:
            assert getattr(link.stats, slot) == getattr(twin, slot), (name, slot)
    sim, chain = untraced.dumbbell.sim, traced.dumbbell.sim
    assert sim.events_virtual > 0
    assert sim.events_fired + sim.events_virtual == chain.events_fired


def test_a_reverse_link_fed_by_two_forward_links_is_not_walkable():
    # Two forward links' deliveries interleave in time but not in send
    # order, so walked ACKs would reach the shared reverse link out of
    # the order the chain admits them.
    sim = Simulator(check_invariants=False, fidelity=EXACT)
    a = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    b = Link(sim, bandwidth_bps=10e6, delay_s=0.02, buffer_bytes=50_000)
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flows = [
        Flow(sim, _NullSender(), Path([a]), Path([rev]), flow_id=1),
        Flow(sim, _NullSender(), Path([b]), Path([rev]), flow_id=2),
    ]
    assert activate_fastforward(sim, flows) == 0
    assert not rev.walkable
    # Nor is one a sender puts data on; the ACKs that sender gets back
    # come through ``rev`` alone, so their link ``b`` is.
    back = Flow(sim, _NullSender(), Path([rev]), Path([b]), flow_id=3)
    assert activate_fastforward(sim, [flows[0], back]) == 1
    assert not rev.walkable and b.walkable and back.ff_collapse
    # One forward link feeding it is fine.  Hybrid collapses anyway (its
    # approximation) and walks nothing.
    assert activate_fastforward(sim, flows[:1]) == 1
    assert rev.walkable
    sim.fidelity = HYBRID
    assert activate_fastforward(sim, flows) == 2
    assert not rev.walkable


def test_a_sampled_link_is_not_walked():
    # A one-group multi-dumbbell's core is fed by one access link, so it
    # is walkable, but it is the link a backlog sampler reads mid-run:
    # walked admissions would show it queue it has not yet received.
    from repro.harness.scenarios import TopologySpec
    from repro.obs import CollectingTracer, MetricsRegistry

    def sampled(tracer):
        registry = MetricsRegistry()
        result = run_flows(
            SPECS, EMULAB_DEFAULT, duration_s=2.0, seed=3, fidelity=EXACT,
            topology=TopologySpec(preset="multi-dumbbell", n_hops=1),
            sample_period_s=0.01, metrics=registry, tracer=tracer,
        )
        return registry.snapshot()["histograms"], result.dumbbell

    untraced, net = sampled(None)
    traced, _ = sampled(CollectingTracer())
    assert not net.monitor.walkable and net.sim.events_virtual > 0
    assert untraced == traced


def test_activate_enables_all_unbounded_flows():
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    flows = _wire(sim, 3)
    assert activate_fastforward(sim, flows) == 3
    assert all(f.ff_collapse for f in flows)


def test_one_bounded_flow_disables_the_whole_shared_link():
    # A packet-exact flow sharing a link with collapsed traffic would
    # see the transmitter pre-claimed at virtual future times, so one
    # ineligible flow must veto every flow on its links.
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    flows = _wire(sim, 3, sizes=[None, 100_000, None])
    assert activate_fastforward(sim, flows) == 0
    assert not any(f.ff_collapse for f in flows)


def test_delivery_callback_disqualifies():
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    fwd = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flow = Flow(
        sim,
        _NullSender(),
        Path([fwd]),
        Path([rev]),
        on_delivery=lambda now, n: None,
    )
    assert activate_fastforward(sim, [flow]) == 0
    assert not flow.ff_collapse


def test_multihop_path_disqualifies():
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    a = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    b = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flow = Flow(sim, _NullSender(), Path([a, b]), Path([rev]))
    assert activate_fastforward(sim, [flow]) == 0


def test_dynamic_link_disqualifies():
    # A DynamicLink's explicit per-packet queue cannot be advanced in
    # closed form: can_fastforward is False and the flow stays exact.
    from repro.sim import DynamicLink, TailDropDiscipline

    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    fwd = DynamicLink(
        sim, rate_bps=10e6, delay_s=0.01, discipline=TailDropDiscipline(50_000)
    )
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flow = Flow(sim, _NullSender(), Path([fwd]), Path([rev]))
    assert activate_fastforward(sim, [flow]) == 0
    assert not flow.ff_collapse


# ----------------------------------------------------------------------
# End-to-end behaviour
# ----------------------------------------------------------------------
SPECS = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)]


def _run(fidelity, tracer=None, duration_s=4.0):
    return run_flows(
        SPECS,
        EMULAB_DEFAULT,
        duration_s=duration_s,
        seed=7,
        fidelity=fidelity,
        tracer=tracer,
    )


def test_hybrid_absorbs_events_virtually():
    exact = _run(EXACT).dumbbell.sim
    sim = _run(HYBRID).dumbbell.sim
    assert sim.events_virtual > 0
    # Exact mode absorbs delivery dispatches too; its chain is what it
    # fired plus what it absorbed.  Hybrid's bursts fire fewer events
    # still, and the virtual ledger keeps its effective count in the
    # same regime as that chain (hybrid may legitimately send slightly
    # fewer packets near MI edges).
    chain = exact.events_fired + exact.events_virtual
    assert sim.events_fired < exact.events_fired
    effective = sim.events_fired + sim.events_virtual
    assert effective > 0.8 * chain


def test_hybrid_counts_no_delivery_after_the_run_ends():
    # A collapsed round trip used to book a delivery landing past
    # ``until`` (cubic's last_delivery 6.055 s on a 6 s pair run).
    result = _run(HYBRID, duration_s=6.0)
    for stats in result.stats:
        assert stats.last_delivery <= 6.0


def test_hybrid_collapses_unless_a_delivery_into_its_reverse_link_is_pending():
    # Hybrid's in-order guard: a send takes the chain while a delivery
    # into the reverse link waits on the heap (``chain_pending``), so no
    # collapsed ACK enters that link ahead of the chain's.  A chain packet
    # dropped on the forward link leaves nothing pending there, so the
    # next send collapses although a collapsed packet is still in flight.
    class _Acks(_NullSender):
        def receive(self, ack):
            arrivals.append((self.flow.sim.now, ack.data_seq))

    arrivals = []
    sim = Simulator(check_invariants=False, fidelity=HYBRID)
    fwd = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=1500)
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flow = Flow(sim, _Acks(), Path([fwd]), Path([rev]), flow_id=1)
    assert activate_fastforward(sim, [flow]) == 1
    virtual = []

    def send(barrier_s=float("inf")):
        # A barrier inside the round trip sends this packet down the chain.
        fwd.ff_barrier_s = barrier_s
        flow.transmit_ff(1500, sim.now)
        fwd.ff_barrier_s = float("inf")
        virtual.append(sim.events_virtual)

    def at_zero():
        send()  # 1 collapses and fills the one-packet buffer
        send(barrier_s=0.005)  # 2 takes the chain and is tail-dropped

    sim.schedule_at(0.0, at_zero)
    sim.schedule_at(0.002, send)  # 3 collapses while 1 is in flight
    sim.schedule_at(0.004, lambda: send(barrier_s=0.005))  # 4: chain, delivered
    sim.schedule_at(0.006, send)  # 5 waits behind 4's pending delivery
    sim.schedule_at(0.020, send)  # 6: 4 has been delivered, so it collapses
    sim.run(until=1.0)
    assert fwd.stats.tail_drops == 1
    assert virtual == [1, 1, 2, 2, 2, 3]
    assert [seq for _, seq in arrivals] == [1, 3, 4, 5, 6]
    assert arrivals == sorted(arrivals)


def _staged_run(stops):
    """Exact cubic + proteus-s on a 50 Mbps / 30 ms dumbbell, run to each stop.

    Returns the flows' stats digest, every link's counters and the sim.
    """
    from repro.core.rng import Rng
    from repro.devtools import stats_digest
    from repro.protocols import make_sender
    from repro.sim import Dumbbell

    sim = Simulator(check_invariants=True, fidelity=EXACT)
    net = Dumbbell(sim, bandwidth_bps=50e6, rtt_s=0.03, buffer_bytes=375_000, rng=Rng(1))
    flows = [
        net.add_flow(make_sender("cubic", seed=1)),
        net.add_flow(make_sender("proteus-s", seed=2), start_time=1.0),
    ]
    assert activate_fastforward(sim, flows) == 2
    for until in stops:
        sim.run(until=until)
        assert all(f.stats.last_delivery <= until for f in flows)
    links = [
        tuple(getattr(link.stats, slot) for slot in type(link.stats).__slots__)
        for link in net.links.values()
    ]
    return stats_digest([f.stats for f in flows]), links, sim


def test_a_run_in_two_legs_equals_one_run():
    # Deliveries past the first ``until`` stay events, and the packets
    # after them take the chain behind them, so stopping at 3 s changes
    # nothing.  (Hybrid's bursts are cut where a run stops, so only
    # exact mode promises this.)
    digest, links, sim = _staged_run([3.0, 6.0])
    once_digest, once_links, once = _staged_run([6.0])
    assert (digest, links) == (once_digest, once_links)
    assert sim.events_virtual > 0
    assert sim.events_fired + sim.events_virtual == once.events_fired + once.events_virtual


def test_hybrid_throughput_close_to_exact():
    # Individual flow shares on one seed are chaotic (exact runs with
    # different seeds diverge just as much); the stable single-run
    # signals are the aggregate throughput and the flow ordering.  The
    # ensemble-mean deltas are pinned in tests/test_fidelity_acceptance.
    exact = _run(EXACT, duration_s=8.0)
    hybrid = _run(HYBRID, duration_s=8.0)
    e_total = exact.throughput_mbps(0) + exact.throughput_mbps(1)
    h_total = hybrid.throughput_mbps(0) + hybrid.throughput_mbps(1)
    assert h_total == pytest.approx(e_total, rel=0.05), (
        f"aggregate: hybrid {h_total:.2f} vs exact {e_total:.2f} Mbps"
    )
    # The primary outcompetes the scavenger in both modes.
    assert exact.throughput_mbps(0) > exact.throughput_mbps(1)
    assert hybrid.throughput_mbps(0) > hybrid.throughput_mbps(1)


def test_hybrid_emits_fastforward_tracepoints():
    from repro.obs import CollectingTracer

    tracer = CollectingTracer()
    _run(HYBRID, tracer=tracer, duration_s=2.0)
    ff = [ev for ev in tracer.events if ev.kind == "sim.fastforward"]
    reasons = {ev.fields["reason"] for ev in ff}
    assert "collapse" in reasons
    # With a tracer attached each burst packet takes the ``Link._admit``
    # reference path, but the burst *dispatch* tracepoint still fires.
    assert "burst" in reasons


def test_exact_mode_emits_no_fastforward_tracepoints():
    from repro.obs import CollectingTracer

    tracer = CollectingTracer()
    _run(EXACT, tracer=tracer, duration_s=2.0)
    assert not any(ev.kind == "sim.fastforward" for ev in tracer.events)


def test_hybrid_deterministic_per_fidelity():
    a = _run(HYBRID)
    b = _run(HYBRID)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.delivered_bytes == sb.delivered_bytes
        assert list(sa.rtts) == list(sb.rtts)
        assert list(sa.loss_times) == list(sb.loss_times)


def _in_fresh_interpreter(code):
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert result.returncode == 0, result.stderr


def test_default_hybrid_run_never_imports_numpy():
    # A fresh interpreter: importing the harness and running hybrid mode
    # must not pay numpy's ~0.14 s / ~13 MiB import.
    _in_fresh_interpreter("""
import sys
import repro.harness.runner
from repro.harness import EMULAB_DEFAULT, FlowSpec, run_flows

result = run_flows(
    [FlowSpec("proteus-p")], EMULAB_DEFAULT, duration_s=2.0, seed=7, fidelity="hybrid"
)
assert result.dumbbell.sim.events_virtual > 0, "the run never fast-forwarded"
assert "numpy" not in sys.modules, "default hybrid imported numpy"
""")


def test_importing_the_cli_imports_neither_scipy_nor_numpy():
    # Every `repro ...` command pays this import; scipy alone was 0.6 s of
    # it, for the two analysis.equilibrium functions that minimise.
    _in_fresh_interpreter("""
import sys
import repro.cli

loaded = sorted({"scipy", "numpy"} & set(sys.modules))
assert not loaded, f"import repro.cli imported {loaded}"
""")


def test_fidelity_is_part_of_the_cache_key(tmp_path):
    from repro.harness.cache import enable_cache, reset_cache_state

    try:
        cache = enable_cache(tmp_path)
        run_flows(SPECS, EMULAB_DEFAULT, duration_s=2.0, seed=3, fidelity=EXACT)
        assert cache.stats()["misses"] == 1
        run_flows(SPECS, EMULAB_DEFAULT, duration_s=2.0, seed=3, fidelity=HYBRID)
        # The hybrid run must not hit the exact run's record.
        assert cache.stats()["misses"] == 2
        run_flows(SPECS, EMULAB_DEFAULT, duration_s=2.0, seed=3, fidelity=HYBRID)
        assert cache.stats()["hits"] == 1
    finally:
        reset_cache_state()


# ----------------------------------------------------------------------
# Conservative-veto property: vetoed scenarios are byte-identical
# ----------------------------------------------------------------------
def test_hybrid_is_byte_identical_when_topology_vetoes():
    """Multi-hop and DynamicLink paths veto fast-forward, so a hybrid
    run of any such scenario must be *byte-identical* to the exact run
    — not merely close — with zero virtual events."""
    from repro.devtools import stats_digest
    from repro.harness import TOPOLOGIES

    for name in ("parking-lot", "parking-lot-codel", "shared-core",
                 "dumbbell-codel", "dumbbell-red"):
        spec = TOPOLOGIES[name]()
        exact = run_flows(
            SPECS, EMULAB_DEFAULT, duration_s=3.0, seed=5,
            fidelity=EXACT, topology=spec,
        )
        hybrid = run_flows(
            SPECS, EMULAB_DEFAULT, duration_s=3.0, seed=5,
            fidelity=HYBRID, topology=spec,
        )
        assert stats_digest(exact.stats) == stats_digest(hybrid.stats), name
        # The veto held: the hybrid engine never fast-forwarded.
        assert hybrid.dumbbell.sim.events_virtual == 0, name


def test_hybrid_is_byte_identical_under_dynamic_link_timeline():
    """A timeline-scripted run over a DynamicLink bottleneck (dumbbell
    with an AQM) exercises the other veto axis: link dynamics."""
    from repro.devtools import stats_digest
    from repro.harness import BandwidthStep, Timeline, TOPOLOGIES

    timeline = Timeline((BandwidthStep(at_s=1.5, bandwidth_mbps=20.0),))
    spec = TOPOLOGIES["dumbbell-codel"]()
    runs = [
        run_flows(
            SPECS, EMULAB_DEFAULT, duration_s=3.0, seed=9,
            fidelity=fid, topology=spec, timeline=timeline,
        )
        for fid in (EXACT, HYBRID)
    ]
    assert stats_digest(runs[0].stats) == stats_digest(runs[1].stats)
    assert runs[1].dumbbell.sim.events_virtual == 0
