"""Property tests: fast-forward under randomized link timelines.

The collapse's correctness argument is structural — collapsed legs
reproduce the packet-exact arithmetic, and every dynamic hazard (loss,
outage, noise, a pending timeline event) forces the reference path — so
the right test is not a handful of hand-picked scenarios but arbitrary
timelines.  Hypothesis drives random bandwidth and delay steps (up and
down), i.i.d. and Gilbert-Elliott loss, and outages through a dumbbell
with the runtime :class:`InvariantChecker` armed; any conservation,
clock, queue, or RTT violation raises mid-run.  Hybrid runs must
conserve packets and repeat; exact runs must equal the traced run of
the same inputs, which keeps the whole event chain.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import (
    EMULAB_DEFAULT,
    BandwidthStep,
    DelayStep,
    FlowSpec,
    GilbertLoss,
    LossStep,
    Outage,
    Timeline,
    run_flows,
)
from repro.devtools import stats_digest
from repro.obs import CollectingTracer
from repro.sim import EXACT, HYBRID
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


def _run(fidelity, timeline, seed, specs=SPECS, tracer=None):
    # Arm the runtime checker regardless of the suite's environment:
    # clock monotonicity + per-sweep link conservation raise mid-run.
    old = os.environ.get("REPRO_CHECK_INVARIANTS")
    os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    try:
        return run_flows(
            specs,
            EMULAB_DEFAULT,
            duration_s=DURATION_S,
            seed=seed,
            timeline=timeline,
            fidelity=fidelity,
            tracer=tracer,
        )
    finally:
        if old is None:
            del os.environ["REPRO_CHECK_INVARIANTS"]
        else:
            os.environ["REPRO_CHECK_INVARIANTS"] = old


def _assert_conservation(result):
    for link in (result.dumbbell.bottleneck, result.dumbbell.reverse):
        stats = link.stats
        accounted = (
            stats.delivered
            + stats.tail_drops
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


# Exact mode collapses round trips only where the result is provably
# the event chain's; a traced exact run keeps the whole chain, so it is
# the reference.  Covers a window-based, a model-based and a three-flow
# competition over the same random timelines.
SPEC_SETS = {
    "cubic+proteus-s": SPECS,
    "bbr+proteus-s": [FlowSpec("bbr"), FlowSpec("proteus-s", start_time=0.5)],
    "cubic+cubic+proteus-p": [
        FlowSpec("cubic"),
        FlowSpec("cubic", start_time=0.25),
        FlowSpec("proteus-p", start_time=0.5),
    ],
}


def _link_counters(result):
    return {
        name: tuple(getattr(link.stats, slot) for slot in type(link.stats).__slots__)
        for name, link in result.dumbbell.links.items()
    }


@settings(max_examples=8, deadline=None)
@given(
    timeline=_timelines,
    seed=st.integers(min_value=0, max_value=2**16),
    specs=st.sampled_from(sorted(SPEC_SETS)),
)
def test_untraced_exact_equals_traced_exact_under_random_timelines(timeline, seed, specs):
    untraced = _run(EXACT, timeline, seed, SPEC_SETS[specs])
    traced = _run(EXACT, timeline, seed, SPEC_SETS[specs], tracer=CollectingTracer())
    _assert_conservation(untraced)
    assert stats_digest(untraced.stats) == stats_digest(traced.stats)
    assert _link_counters(untraced) == _link_counters(traced)
    chain, sim = traced.dumbbell.sim, untraced.dumbbell.sim
    # Every timeline step lands after 0.3 s, so the plain dumbbell
    # collapses at least until then.
    assert chain.events_virtual == 0 and sim.events_virtual > 0
    assert sim.events_fired + sim.events_virtual == chain.events_fired


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
