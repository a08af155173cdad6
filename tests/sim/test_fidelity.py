"""Hybrid-fidelity unit and integration tests.

Covers the :mod:`repro.sim.fidelity` configuration surface, the
all-or-nothing per-link eligibility rule of ``activate_fastforward``,
the ``sim.fastforward`` tracepoints, and the virtual-event accounting.
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


def _wire(sim, n_flows: int, sizes=None):
    fwd = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    rev = Link(sim, bandwidth_bps=10e6, delay_s=0.01, buffer_bytes=50_000)
    flows = []
    for i in range(n_flows):
        size = sizes[i] if sizes else None
        flows.append(
            Flow(
                sim,
                _NullSender(),
                Path([fwd]),
                Path([rev]),
                flow_id=i + 1,
                size_bytes=size,
            )
        )
    return flows


def test_activate_noop_in_exact_mode():
    sim = Simulator(check_invariants=False, fidelity=EXACT)  # not REPRO_FIDELITY's
    flows = _wire(sim, 2)
    assert activate_fastforward(sim, flows) == 0
    assert not any(f.ff_collapse for f in flows)


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
    exact = _run(EXACT)
    hybrid = _run(HYBRID)
    assert exact.dumbbell.sim.events_virtual == 0
    sim = hybrid.dumbbell.sim
    assert sim.events_virtual > 0
    # Fewer real dispatches, but the virtual ledger keeps the effective
    # count in the same regime as the exact run (hybrid may legitimately
    # send slightly fewer packets near MI edges).
    assert sim.events_fired < exact.dumbbell.sim.events_fired
    effective = sim.events_fired + sim.events_virtual
    assert effective > 0.8 * exact.dumbbell.sim.events_fired


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
