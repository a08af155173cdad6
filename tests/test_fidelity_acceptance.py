"""Acceptance: hybrid fidelity vs packet-exact on the paper's scenarios.

Two pins, matching the two regimes of the hybrid mode:

* **Fig-6 regime (all-unbounded competition)** — fast-forward engages,
  so hybrid results are an *approximation*: single-seed trajectories are
  chaotic (packet-exact runs with different seeds diverge just as much),
  but the ensemble-mean scavenger metrics must track packet-exact.  The
  deltas pinned here are the fidelity contract quoted in
  ``docs/PERFORMANCE.md``.
* **Fig-2 regime (mixed workload with bounded flows)** — one bounded
  flow vetoes fast-forward on its links (see ``activate_fastforward``),
  so the hybrid run must be *identical* to packet-exact, byte for byte.
"""

from __future__ import annotations

import pytest

from repro.harness import EMULAB_DEFAULT, FlowSpec, run_flows, run_pair
from repro.sim import EXACT, HYBRID

SEEDS = (1, 2, 3)
DURATION_S = 10.0

# Ensemble tolerance for the Fig-6 regime.  Measured over the pinned
# seeds: exact mean ratio 0.981, hybrid 0.899 — the shared-link burst
# cap bounds the gap well inside this budget (see _SHARED_BURST_CAP).
RATIO_TOLERANCE = 0.12
MIN_UTILIZATION = 0.95


def _ensemble(fidelity):
    ratios, utils = [], []
    for seed in SEEDS:
        pair = run_pair(
            "cubic",
            "proteus-s",
            EMULAB_DEFAULT,
            duration_s=DURATION_S,
            seed=seed,
            fidelity=fidelity,
        )
        ratios.append(pair.primary_throughput_ratio)
        utils.append(pair.utilization)
    n = len(SEEDS)
    return sum(ratios) / n, sum(utils) / n


def test_fig6_ensemble_scavenger_metrics_track_exact():
    exact_ratio, exact_util = _ensemble(EXACT)
    hybrid_ratio, hybrid_util = _ensemble(HYBRID)
    # The paper's qualitative claim survives in both modes: the primary
    # keeps (nearly) all of its solo throughput while the scavenger
    # fills the remaining capacity.
    assert exact_ratio > 0.9
    assert hybrid_ratio > 0.8
    assert exact_util > MIN_UTILIZATION
    assert hybrid_util > MIN_UTILIZATION
    # And the quantitative ensemble gap stays inside the documented
    # fidelity budget.
    assert abs(hybrid_ratio - exact_ratio) < RATIO_TOLERANCE, (
        f"ensemble primary-throughput-ratio gap: "
        f"hybrid {hybrid_ratio:.3f} vs exact {exact_ratio:.3f}"
    )


# Fig-2-style mixed workload: a long-lived probe pair plus a *bounded*
# transfer sharing the bottleneck.  The bounded flow's completion
# bookkeeping rides on per-packet delivery timing, so hybrid's collapse
# must stand down for every flow on the link.
MIXED_SPECS = [
    FlowSpec("cubic"),
    FlowSpec("proteus-s", start_time=1.0),
    FlowSpec("cubic", start_time=0.5, size_bytes=200_000),
]


def test_fig2_mixed_workload_hybrid_is_bit_identical_to_exact():
    exact = run_flows(
        MIXED_SPECS, EMULAB_DEFAULT, duration_s=6.0, seed=11, fidelity=EXACT
    )
    hybrid = run_flows(
        MIXED_SPECS, EMULAB_DEFAULT, duration_s=6.0, seed=11, fidelity=HYBRID
    )
    # Fast-forward declined to engage: nothing was virtualized.  Exact
    # mode walks the ACK link, so its chain is what it fired plus what
    # it absorbed.
    assert hybrid.dumbbell.sim.events_virtual == 0
    exact_sim = exact.dumbbell.sim
    assert hybrid.dumbbell.sim.events_fired == exact_sim.events_fired + exact_sim.events_virtual
    for se, sh in zip(exact.stats, hybrid.stats):
        assert sh.packets_sent == se.packets_sent
        assert sh.delivered_bytes == se.delivered_bytes
        assert list(sh.rtts) == list(se.rtts)
        assert list(sh.ack_times) == list(se.ack_times)
        assert list(sh.loss_times) == list(se.loss_times)


def test_fig6_solo_runs_are_bit_identical_across_modes():
    # A solo unbounded flow collapses its legs *and* bursts at the full
    # cap in hybrid mode, yet the collapse arithmetic is closed-form
    # identical to the packet chain — throughput must match to float
    # precision, not a tolerance.
    exact = run_flows(
        [FlowSpec("cubic")], EMULAB_DEFAULT, duration_s=6.0, seed=5, fidelity=EXACT
    )
    hybrid = run_flows(
        [FlowSpec("cubic")], EMULAB_DEFAULT, duration_s=6.0, seed=5, fidelity=HYBRID
    )
    assert hybrid.dumbbell.sim.events_virtual > 0
    assert hybrid.throughput_mbps(0) == pytest.approx(
        exact.throughput_mbps(0), rel=1e-9
    )
