"""Extension: Proteus on a cellular-like varying-rate channel (§7.2).

The paper's discussion names LTE as untested territory ("there are
high-fluctuation environments we have not yet tested, such as LTE").
This bench runs the protocols over a bottleneck whose service rate
random-walks every couple of seconds (depth +/-60% around 20 Mbps) and
reports solo throughput plus the scavenger ordering, including the
noise-aware utility extension.
"""

from __future__ import annotations

from _common import run_once, scaled

from repro.harness import print_table
from repro.protocols import make_sender
from repro.sim import (
    Dumbbell,
    Simulator,
    TailDropDiscipline,
    TimelineDriver,
    cellular_events,
    make_rng,
    mbps,
)

MEAN_MBPS = 20.0
RTT_S = 0.050
BUFFER_BYTES = 250e3
PROTOCOLS = (
    "cubic",
    "bbr",
    "proteus-p",
    "proteus-s",
    "vivace",
    "ledbat",
)


def build(seed, duration):
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(MEAN_MBPS),
        rtt_s=RTT_S,
        buffer_bytes=BUFFER_BYTES,
        rng=make_rng(seed),
        discipline=TailDropDiscipline(BUFFER_BYTES),
    )
    # Built before any flow, so each epoch's rate is in place before a
    # packet starting service at that instant reads it.
    TimelineDriver(
        sim,
        dumbbell.links,
        cellular_events(
            "bottleneck", mbps(MEAN_MBPS), duration, period_s=2.0, depth=0.6, seed=seed
        ),
    )
    return sim, dumbbell


def experiment():
    duration = scaled(40.0)
    solo = {}
    for proto in PROTOCOLS:
        sim, dumbbell = build(seed=21, duration=duration)
        flow = dumbbell.add_flow(make_sender(proto))
        sim.run(until=duration)
        solo[proto] = flow.stats.throughput_bps(duration * 0.3, duration) / 1e6

    # Scavenger ordering on the varying channel: BBR primary + scavenger.
    pair = {}
    for scavenger in ("proteus-s", "proteus-s-noise-aware", "ledbat"):
        sim, dumbbell = build(seed=22, duration=duration)
        primary = dumbbell.add_flow(make_sender("bbr"), flow_id=1)
        kwargs = {}
        if scavenger == "proteus-s-noise-aware":
            sender = make_sender("proteus-s", seed=9)
            sender.set_utility("proteus-s-noise-aware")
        else:
            sender = make_sender(scavenger, seed=9)
        dumbbell.add_flow(sender, flow_id=2, start_time=5.0, **kwargs)
        sim.run(until=duration)
        window = (duration * 0.4, duration)
        pair[scavenger] = (
            primary.stats.throughput_bps(*window) / 1e6,
        )
    return solo, pair


def test_ext_cellular_channel(benchmark):
    solo, pair = run_once(benchmark, experiment)

    rows = [(proto, f"{thr:.1f}") for proto, thr in solo.items()]
    print_table(
        ["protocol", "solo Mbps"],
        rows,
        title=f"Extension: solo throughput on a cellular-like {MEAN_MBPS:.0f} Mbps channel",
    )
    rows = [(s, f"{thr[0]:.1f}") for s, thr in pair.items()]
    print_table(
        ["scavenger", "BBR primary Mbps"],
        rows,
        title="BBR primary throughput with each scavenger (same channel)",
    )

    # Nothing collapses on the varying channel.
    for proto in ("cubic", "bbr", "proteus-p", "proteus-s"):
        assert solo[proto] > 0.4 * MEAN_MBPS, proto
    # Scavenger ordering holds: the primary keeps at least as much
    # against Proteus-S as against LEDBAT.
    assert pair["proteus-s"][0] >= pair["ledbat"][0] * 0.85
    # The noise-aware variant must not break yielding.
    assert pair["proteus-s-noise-aware"][0] > 0.5 * MEAN_MBPS
