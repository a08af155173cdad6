"""Pins the graph every topology preset builds.

Link names and classes in insertion order, node order, the monitored
link, per-link loss, noise and RNG stream, and the default endpoints of
the first six flows: whatever code builds a preset, the graph a run sees
must not move.
"""

import pytest

from repro.core.rng import spawn
from repro.harness import TOPOLOGIES, LinkConfig, TopologySpec
from repro.harness.scenarios import AQM_KINDS
from repro.sim import Simulator, make_rng

CONFIG = LinkConfig(
    bandwidth_mbps=20.0,
    rtt_ms=30.0,
    buffer_kb=150.0,
    loss_rate=0.01,
    noise_severity=0.5,
    reverse_noise_severity=0.25,
)
SEED = 7

# name -> (link class, loss_rate, has noise), in insertion order.
DUMBBELL_LINKS = {
    "bottleneck": ("Link", 0.01, True),
    "reverse": ("Link", 0.0, True),
}
PARKING_LOT_LINKS = {
    "hop0": ("Link", 0.01, False),
    "hop1": ("Link", 0.01, False),
    "hop2": ("Link", 0.01, True),
    "rev2": ("Link", 0.0, False),
    "rev1": ("Link", 0.0, False),
    "rev0": ("Link", 0.0, False),
}
SHARED_CORE_LINKS = {
    "access0": ("Link", 0.01, False),
    "access1": ("Link", 0.01, False),
    "access2": ("Link", 0.01, False),
    "access3": ("Link", 0.01, False),
    "core": ("Link", 0.0, True),
    "core-rev": ("Link", 0.0, False),
    "access0-rev": ("Link", 0.0, False),
    "access1-rev": ("Link", 0.0, False),
    "access2-rev": ("Link", 0.0, False),
    "access3-rev": ("Link", 0.0, False),
}


def _with_class(links, congested, cls):
    return {
        name: ((cls,) + row[1:] if name in congested else row)
        for name, row in links.items()
    }


DUMBBELL_GRAPH = (["src", "dst"], "bottleneck", [("src", "dst")] * 6)
PARKING_LOT_GRAPH = (["n0", "n1", "n2", "n3"], "hop0", [("n0", "n3")] * 6)

EXPECTED = {
    "parking-lot": (PARKING_LOT_LINKS, *PARKING_LOT_GRAPH),
    "parking-lot-codel": (
        _with_class(PARKING_LOT_LINKS, {"hop0", "hop1", "hop2"}, "DynamicLink"),
        *PARKING_LOT_GRAPH,
    ),
    "shared-core": (
        SHARED_CORE_LINKS,
        ["s0", "core", "s1", "s2", "s3", "sink"],
        "core",
        [("s0", "sink"), ("s1", "sink"), ("s2", "sink"), ("s3", "sink"),
         ("s0", "sink"), ("s1", "sink")],
    ),
    "dumbbell-codel": (
        _with_class(DUMBBELL_LINKS, {"bottleneck"}, "DynamicLink"),
        *DUMBBELL_GRAPH,
    ),
    "dumbbell-red": (
        _with_class(DUMBBELL_LINKS, {"bottleneck"}, "DynamicLink"),
        *DUMBBELL_GRAPH,
    ),
}
for _aqm in AQM_KINDS:
    EXPECTED[f"dumbbell+{_aqm or 'fifo'}"] = (
        _with_class(DUMBBELL_LINKS, {"bottleneck"} if _aqm else set(), "DynamicLink"),
        *DUMBBELL_GRAPH,
    )


def _spec(name):
    if name.startswith("dumbbell+"):
        aqm = name.split("+", 1)[1]
        return TopologySpec(preset="dumbbell", aqm="" if aqm == "fifo" else aqm)
    return TOPOLOGIES[name]()


def test_every_preset_is_pinned():
    assert set(TOPOLOGIES) <= set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_preset_builds_the_pinned_graph(name):
    links, nodes, monitor, endpoints = EXPECTED[name]
    net = _spec(name).build(Simulator(), CONFIG, make_rng(SEED))
    assert list(net.links) == list(links)
    built = {
        link.name: (type(link).__name__, link.loss_rate, link.noise is not None)
        for link in net.links.values()
    }
    assert built == links
    assert net.nodes == nodes
    assert net.monitor is net.links[monitor]
    assert [net.default_endpoints(i) for i in range(6)] == endpoints
    # Each link draws loss and noise from the stream labelled by its name.
    for link in net.links.values():
        assert link.rng.getstate() == spawn(make_rng(SEED), link.name).getstate()
