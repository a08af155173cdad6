"""Extension: scavengers under AQM bottlenecks (beyond the paper).

The paper's evaluation runs exclusively on tail-drop FIFO queues.  AQM
changes the scavenger problem qualitatively: CoDel keeps standing queues
near 5 ms, so LEDBAT's 100 ms delay target can never be reached — the
delay signal that makes LEDBAT defer is simply absent, and LEDBAT
competes like a loss-based flow.  Proteus-S's deviation signal still
fires (AQM-induced drops and the primary's probing both perturb RTTs),
so the yielding ordering survives the queue discipline.

This bench quantifies that: primary throughput ratio of CUBIC against
each scavenger under tail-drop, RED, and CoDel bottlenecks.
"""

from __future__ import annotations

from _common import run_once, scaled

from repro.harness import print_table
from repro.protocols import make_sender
from repro.sim import (
    CoDelDiscipline,
    DynamicLink,
    REDDiscipline,
    Simulator,
    TailDropDiscipline,
    Topology,
    make_rng,
    mbps,
)

BANDWIDTH_MBPS = 50.0
RTT_S = 0.030
BUFFER_BYTES = 375e3
SCAVENGERS = ("proteus-s", "ledbat")


def make_discipline(kind: str):
    if kind == "taildrop":
        return TailDropDiscipline(BUFFER_BYTES)
    if kind == "red":
        return REDDiscipline(BUFFER_BYTES)
    if kind == "codel":
        return CoDelDiscipline(BUFFER_BYTES)
    raise ValueError(kind)


def run(kind: str, scavenger: str | None, duration: float, seed: int = 3):
    sim = Simulator()
    # A dumbbell whose bottleneck draws RED's coin flips from the run
    # seed itself, so it is built by hand and attached.
    net = Topology(sim, rng=make_rng(seed))
    net.attach_link(
        "src",
        "dst",
        DynamicLink(
            sim,
            rate_bps=mbps(BANDWIDTH_MBPS),
            delay_s=RTT_S / 2,
            discipline=make_discipline(kind),
            rng=make_rng(seed),
        ),
    )
    net.add_link(
        "dst", "src", bandwidth_bps=mbps(BANDWIDTH_MBPS) * 40.0, delay_s=RTT_S / 2
    )
    primary = net.add_flow(make_sender("cubic"), flow_id=1)
    if scavenger is not None:
        net.add_flow(make_sender(scavenger), flow_id=2, start_time=5.0)
    sim.run(until=duration)
    window = (duration * 0.4, duration)
    return primary.stats.throughput_bps(*window) / 1e6


def experiment():
    duration = scaled(30.0)
    ratios = {}
    for kind in ("taildrop", "red", "codel"):
        solo = run(kind, None, duration)
        for scavenger in SCAVENGERS:
            with_scav = run(kind, scavenger, duration)
            ratios[(kind, scavenger)] = with_scav / solo if solo > 0 else 0.0
    return ratios


def test_ext_aqm_scavenger_interaction(benchmark):
    ratios = run_once(benchmark, experiment)

    rows = [
        [kind] + [f"{ratios[(kind, s)] * 100:.1f}%" for s in SCAVENGERS]
        for kind in ("taildrop", "red", "codel")
    ]
    print_table(
        ["bottleneck"] + list(SCAVENGERS),
        rows,
        title="Extension: CUBIC's throughput ratio vs scavenger, by queue discipline",
    )

    # Proteus-S yields under every discipline.
    for kind in ("taildrop", "red", "codel"):
        assert ratios[(kind, "proteus-s")] > 0.8, kind
    # Under CoDel, LEDBAT cannot observe its delay target and competes;
    # Proteus-S still defers more than LEDBAT does.
    assert ratios[("codel", "proteus-s")] > ratios[("codel", "ledbat")]
