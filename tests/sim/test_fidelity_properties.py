"""Property tests: fast-forward under randomized link timelines.

The collapse's correctness argument is structural — collapsed legs
reproduce the packet-exact arithmetic, and every dynamic hazard (loss,
outage, noise, a pending timeline event) forces the reference path — so
the right test is not a handful of hand-picked scenarios but arbitrary
timelines.  Hypothesis drives random bandwidth and delay steps (up and
down), i.i.d. and Gilbert-Elliott loss, and outages through a dumbbell
with the runtime :class:`InvariantChecker` armed; any conservation,
clock, queue, or RTT violation raises mid-run.  Hybrid runs must
conserve packets, repeat, and never admit a packet past a link's
timeline barrier; exact runs must equal the traced run of the same
inputs, which keeps the whole event chain, also over noisy and lossy
links, multi-hop presets, bounded flows and a run split into two legs.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.harness import (
    EMULAB_DEFAULT,
    TOPOLOGIES,
    BandwidthStep,
    DelayStep,
    FlowSpec,
    GilbertLoss,
    LinkConfig,
    LossStep,
    Outage,
    Timeline,
    run_flows,
)
from repro.harness import runner as runner_module
from repro.devtools import stats_digest
from repro.obs import CollectingTracer
from repro.sim import EXACT, HYBRID
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import MTU_BYTES

SPECS = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5)]
DURATION_S = 4.0

# Step times land strictly inside the run so every mutation is exercised.
_times = st.floats(min_value=0.3, max_value=3.5, allow_nan=False)

_bandwidth_steps = st.builds(
    BandwidthStep,
    at_s=_times,
    bandwidth_mbps=st.floats(min_value=4.0, max_value=40.0, allow_nan=False),
)
# Either side of the 15 ms the bottleneck starts with, so the FIFO guard
# (decrease) and the min_delay_s RTT floor (increase) are both in play.
_delay_steps = st.builds(
    DelayStep,
    at_s=_times,
    delay_ms=st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
)
_loss_steps = st.builds(
    LossStep,
    at_s=_times,
    loss_rate=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
)
_outages = st.builds(
    lambda start, span: Outage(start_s=start, end_s=start + span),
    start=_times,
    span=st.floats(min_value=0.05, max_value=0.4, allow_nan=False),
)
_gilbert_steps = st.builds(
    GilbertLoss,
    at_s=_times,
    p_enter_bad=st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
    p_exit_bad=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
)

_timelines = st.lists(
    st.one_of(_bandwidth_steps, _delay_steps, _loss_steps, _outages, _gilbert_steps),
    min_size=0,
    max_size=4,
).map(lambda steps: Timeline(tuple(steps), label="property"))


def _run(
    fidelity, timeline, seed, specs=SPECS, tracer=None,
    config=EMULAB_DEFAULT, topology=None, split_s=None,
):
    """One ``run_flows`` call; ``split_s`` stops the run there once first."""

    class TwoLegs(Simulator):
        def run(self, until=None, **budgets):
            super().run(until=split_s, **budgets)
            super().run(until=until, **budgets)

    with pytest.MonkeyPatch.context() as patch:
        # Arm the runtime checker regardless of the suite's environment:
        # clock monotonicity + per-sweep link conservation raise mid-run.
        patch.setenv("REPRO_CHECK_INVARIANTS", "1")
        if split_s is not None:
            patch.setattr(runner_module, "Simulator", TwoLegs)
        return run_flows(
            specs,
            config,
            duration_s=DURATION_S,
            seed=seed,
            timeline=timeline,
            fidelity=fidelity,
            tracer=tracer,
            topology=topology,
        )


def _assert_conservation(result):
    for link in result.dumbbell.links.values():
        stats = link.stats
        accounted = (
            stats.delivered
            + stats.tail_drops
            + stats.aqm_drops
            + stats.random_losses
            + getattr(stats, "outage_drops", 0)
            + link.queued_packets()
        )
        assert stats.offered == accounted, (
            f"{link.name}: offered={stats.offered} accounted={accounted}"
        )
    for flow_stats in result.stats:
        assert flow_stats.delivered_bytes <= flow_stats.packets_sent * MTU_BYTES


@settings(max_examples=12, deadline=None)
@given(timeline=_timelines, seed=st.integers(min_value=0, max_value=2**16))
def test_hybrid_conserves_packets_under_random_timelines(timeline, seed):
    hybrid = _run(HYBRID, timeline, seed)
    _assert_conservation(hybrid)
    sim = hybrid.dumbbell.sim
    assert sim.events_virtual >= 0
    assert sim.events_fired > 0
    # The virtual ledger only ever counts absorbed per-packet events; it
    # can never exceed what a packet-exact run would have dispatched for
    # the same packet count (3 events per collapsed round trip).
    total_packets = sum(s.packets_sent for s in hybrid.stats)
    assert sim.events_virtual <= 3 * total_packets


# Exact mode walks only where the result is provably the event chain's;
# a traced exact run keeps the whole chain, so it is the reference.
# Covers a window-based, a model-based and a three-flow competition, with
# bounded transfers beside them, over random links and timelines.
SPEC_SETS = {
    "cubic+proteus-s": SPECS,
    "bbr+proteus-s": [FlowSpec("bbr"), FlowSpec("proteus-s", start_time=0.5)],
    "cubic+cubic+proteus-p": [
        FlowSpec("cubic"),
        FlowSpec("cubic", start_time=0.25),
        FlowSpec("proteus-p", start_time=0.5),
    ],
}

# Presets beside the plain dumbbell (None): multi-hop paths, a shared
# core, and event-based CoDel hops in front of analytic ACK links.
_TOPOLOGY_NAMES = (None, "shared-core", "parking-lot", "parking-lot-codel", "dumbbell-codel")


@st.composite
def _exact_cases(draw):
    topology = draw(st.sampled_from(_TOPOLOGY_NAMES))
    config = LinkConfig(
        50.0, 30.0, 375.0,
        loss_rate=draw(st.sampled_from([0.0, 0.0, 0.01])),
        noise_severity=draw(st.sampled_from([0.0, 0.0, 1.0, 2.0])),
        reverse_noise_severity=draw(st.sampled_from([0.0, 0.0, 1.0])),
    )
    specs = list(SPEC_SETS[draw(st.sampled_from(sorted(SPEC_SETS)))])
    for size in draw(st.lists(st.sampled_from([30_000, 200_000]), max_size=2)):
        start = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
        specs.append(FlowSpec("cubic", start_time=start, size_bytes=size))
    timeline = None
    if topology is None:
        timeline = draw(_timelines)
        # Steps on the ACK link too: it is the one exact mode walks.
        reverse = draw(st.lists(
            st.one_of(_bandwidth_steps, _delay_steps, _loss_steps, _outages),
            max_size=2,
        ))
        steps = timeline.steps + tuple(_on_reverse(step) for step in reverse)
        timeline = Timeline(steps, label="property")
    split_s = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=3.5)))
    return {
        "specs": specs,
        "config": config,
        "timeline": timeline,
        "topology": TOPOLOGIES[topology]() if topology else None,
        "split_s": split_s,
    }


def _on_reverse(step):
    from dataclasses import replace

    return replace(step, link="reverse")


def _link_counters(result):
    return {
        name: tuple(getattr(link.stats, slot) for slot in type(link.stats).__slots__)
        for name, link in result.dumbbell.links.items()
    }


@settings(max_examples=20, deadline=None)
@given(case=_exact_cases(), seed=st.integers(min_value=0, max_value=2**16))
def test_untraced_exact_equals_traced_exact_under_random_timelines(case, seed):
    untraced = _run(EXACT, case["timeline"], seed, case["specs"], **_legs(case))
    traced = _run(
        EXACT, case["timeline"], seed, case["specs"], tracer=CollectingTracer(), **_legs(case)
    )
    _assert_conservation(untraced)
    assert stats_digest(untraced.stats) == stats_digest(traced.stats)
    assert _link_counters(untraced) == _link_counters(traced)
    chain, sim = traced.dumbbell.sim, untraced.dumbbell.sim
    # Every ACK link of these topologies is walkable, and every timeline
    # step lands after 0.3 s, so some hop is walked before then.
    assert chain.events_virtual == 0 and sim.events_virtual > 0
    assert sim.events_fired + sim.events_virtual == chain.events_fired


def _legs(case):
    return {key: case[key] for key in ("config", "topology", "split_s")}


# Hybrid collapses over noisy links on a noise-free estimate of the
# round trip; the reverse link must still never admit an ACK at or past
# its next timeline step (``Link.send_ff``'s contract).
_reverse_delay_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.3, max_value=3.5, allow_nan=False),
        st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=10, deadline=None)
@given(steps=_reverse_delay_steps, seed=st.integers(min_value=0, max_value=2**16))
@example(steps=[(2.538, 24.7)], seed=26)
def test_hybrid_never_admits_past_a_barrier_under_noise(steps, seed):
    late = []
    send_ff = Link.send_ff

    def checked(self, packet, at_s):
        if at_s >= self.ff_barrier_s:
            late.append((self.name, at_s, self.ff_barrier_s))
        return send_ff(self, packet, at_s)

    timeline = Timeline(
        tuple(DelayStep(at_s=t, delay_ms=ms, link="reverse") for t, ms in steps)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Link, "send_ff", checked)
        _run(HYBRID, timeline, seed, config=LinkConfig(50.0, 30.0, 375.0, noise_severity=2.0))
    assert not late, f"send_ff at or past the barrier: {late[:3]}"


@settings(max_examples=6, deadline=None)
@given(timeline=_timelines, seed=st.integers(min_value=0, max_value=2**16))
def test_hybrid_is_deterministic_under_random_timelines(timeline, seed):
    a = _run(HYBRID, timeline, seed)
    b = _run(HYBRID, timeline, seed)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.delivered_bytes == sb.delivered_bytes
        assert sa.packets_sent == sb.packets_sent
        assert list(sa.rtts) == list(sb.rtts)
        assert list(sa.loss_times) == list(sb.loss_times)
