"""Packet-level discrete-event network simulator.

This package is the testbed substrate for the reproduction: the stand-in
for the paper's Emulab links and live-Internet paths.  It provides an
event engine, links with tail-drop FIFO buffers, random loss, latency
noise models, flows with exact timestamp echo, and per-flow statistics.
"""

from .aqm import (
    CoDelDiscipline,
    DynamicLink,
    HeadDropDiscipline,
    RandomDropDiscipline,
    REDDiscipline,
    TailDropDiscipline,
)
from .dynamics import (
    DynamicsError,
    GilbertElliott,
    LinkEvent,
    TimelineDriver,
    cellular_events,
)
from .engine import Event, SimBudgetExceeded, SimulationError, Simulator
from .fidelity import (
    EXACT,
    HYBRID,
    Fidelity,
    activate_fastforward,
    resolve_fidelity,
)
from .flow import Flow, FlowReceiver, Path
from .invariants import InvariantChecker, InvariantError
from .link import Link, LinkStats
from .noise import (
    CompositeNoise,
    GaussianJitter,
    NoNoise,
    SpikeNoise,
    wifi_noise,
)
from .packet import ACK_BYTES, MTU_BYTES, Packet
from ..core.rng import Rng, make_rng, spawn
from .topology import (
    Dumbbell,
    Topology,
    TopologyError,
    mbps,
)
from .trace import FlowStats

__all__ = [
    "ACK_BYTES",
    "CoDelDiscipline",
    "CompositeNoise",
    "Dumbbell",
    "DynamicLink",
    "HeadDropDiscipline",
    "RandomDropDiscipline",
    "REDDiscipline",
    "TailDropDiscipline",
    "Topology",
    "TopologyError",
    "cellular_events",
    "DynamicsError",
    "EXACT",
    "Event",
    "Fidelity",
    "Flow",
    "FlowReceiver",
    "FlowStats",
    "GaussianJitter",
    "GilbertElliott",
    "HYBRID",
    "LinkEvent",
    "TimelineDriver",
    "InvariantChecker",
    "InvariantError",
    "Link",
    "LinkStats",
    "MTU_BYTES",
    "NoNoise",
    "Packet",
    "Path",
    "Rng",
    "SimBudgetExceeded",
    "SimulationError",
    "Simulator",
    "SpikeNoise",
    "activate_fastforward",
    "make_rng",
    "resolve_fidelity",
    "mbps",
    "spawn",
    "wifi_noise",
]
