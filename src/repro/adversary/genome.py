"""The serializable scenario genome the adversarial search mutates.

A :class:`ScenarioGenome` is pure data: one bottleneck configuration,
a :class:`~repro.harness.scenarios.Timeline` of link dynamics, an
optional :class:`~repro.harness.scenarios.TopologySpec`, and a mix of
competing traffic flows (:class:`~repro.harness.runner.FlowSpec`) —
everything an evaluation run needs beyond the controller under test
(:meth:`ScenarioGenome.run_spec`).  It round-trips
through :meth:`ScenarioGenome.to_dict` exactly, so a genome *is* its
cache/manifest key and an archived counterexample replays bit-identically.

Sampling, mutation and crossover draw exclusively from a seeded
:class:`~repro.core.rng.Rng`: the same stream always proposes the same
genome.  :meth:`ScenarioGenome.size` is the shrinking metric — timeline
steps, traffic flows, and "unrounded" scalar parameters each count one
unit, so every accepted shrink step strictly decreases it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.rng import Rng
from ..harness.runner import FlowSpec, RunSpec
from ..harness.scenarios import (
    BandwidthFlap,
    BandwidthStep,
    DelayStep,
    LinkConfig,
    LossStep,
    Outage,
    Timeline,
    TimelineStep,
    TopologySpec,
    step_start_s,
    timeline_from_dict,
    topology_from_dict,
)

GENOME_SCHEMA = 1

#: Hostile/competing cross-traffic protocols the sampler may draw.
HOSTILE_PROTOCOLS = ("burst-flood", "onoff")
CROSS_PRIMARY_PROTOCOLS = ("cubic", "bbr")

# Sampling ranges (kept modest so one evaluation stays cheap).
_BW_RANGE_MBPS = (8.0, 60.0)
_RTT_RANGE_MS = (10.0, 80.0)
_BUFFER_RANGE_BDP = (0.3, 2.0)
_NOISE_RANGE = (0.0, 1.5)


@dataclass(frozen=True)
class ScenarioGenome:
    """A complete adversarial scenario, serializable and shrinkable."""

    bandwidth_mbps: float
    rtt_ms: float
    buffer_kb: float
    duration_s: float
    noise_severity: float = 0.0
    timeline: Timeline = Timeline(())
    topology: TopologySpec | None = None
    # Each flow's jitter seed derives from the run seed and its index in
    # the runner, so it is not part of the genome.
    traffic: tuple[FlowSpec, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "traffic", tuple(self.traffic))
        if self.bandwidth_mbps <= 0 or self.rtt_ms <= 0 or self.buffer_kb <= 0:
            raise ValueError("bandwidth, rtt and buffer must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.noise_severity < 0:
            raise ValueError("noise_severity must be non-negative")
        self.timeline.validate()

    # ------------------------------------------------------------------
    # Evaluation glue
    # ------------------------------------------------------------------
    def link_config(self) -> LinkConfig:
        return LinkConfig(
            bandwidth_mbps=self.bandwidth_mbps,
            rtt_ms=self.rtt_ms,
            buffer_kb=self.buffer_kb,
            noise_severity=self.noise_severity,
            label=self.label or "adversary",
        )

    def run_spec(self, flows: list[FlowSpec], seed: int) -> RunSpec:
        """``flows`` over this scenario's link, dynamics and topology (exact)."""
        return RunSpec(
            tuple(flows), self.link_config(), self.duration_s, seed,
            self.timeline, self.topology, "exact",
        )

    # ------------------------------------------------------------------
    # Serialization (exact JSON round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": GENOME_SCHEMA,
            "bandwidth_mbps": self.bandwidth_mbps,
            "rtt_ms": self.rtt_ms,
            "buffer_kb": self.buffer_kb,
            "duration_s": self.duration_s,
            "noise_severity": self.noise_severity,
            "timeline": self.timeline.to_dict(),
            "topology": None if self.topology is None else self.topology.to_dict(),
            # Not FlowSpec.to_dict: archived genomes and the manifest keys
            # hashed from them keep this layout.
            "traffic": [
                {"protocol": flow.protocol, "start_s": flow.start_time,
                 "params": dict(flow.kwargs)}
                for flow in self.traffic
            ],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioGenome":
        if not isinstance(data, dict):
            raise ValueError("genome document must be a dict")
        schema = data.get("schema", GENOME_SCHEMA)
        if schema != GENOME_SCHEMA:
            raise ValueError(f"unsupported genome schema {schema!r}")
        topology = data.get("topology")
        return cls(
            bandwidth_mbps=float(data["bandwidth_mbps"]),
            rtt_ms=float(data["rtt_ms"]),
            buffer_kb=float(data["buffer_kb"]),
            duration_s=float(data["duration_s"]),
            noise_severity=float(data.get("noise_severity", 0.0)),
            timeline=timeline_from_dict(
                data.get("timeline", {"label": "", "steps": []})
            ),
            topology=None if topology is None else topology_from_dict(topology),
            traffic=tuple(
                FlowSpec(
                    str(flow["protocol"]),
                    start_time=float(flow.get("start_s", 0.0)),
                    kwargs=dict(flow.get("params", {})),
                )
                for flow in data.get("traffic", [])
            ),
            label=str(data.get("label", "")),
        )

    # ------------------------------------------------------------------
    # Shrinking metric
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Complexity units for delta-debugging: strictly decreasing
        under every accepted shrink step (dropped timeline steps,
        dropped traffic flows, rounded scalar parameters)."""
        scalars = (
            self.bandwidth_mbps,
            self.rtt_ms,
            self.buffer_kb,
            self.duration_s,
            self.noise_severity,
        )
        unrounded = sum(1 for value in scalars if value != _round_param(value))
        return len(self.timeline.steps) + len(self.traffic) + unrounded


def _round_param(value: float) -> float:
    """The "round" form of a scalar knob (one decimal place)."""
    return round(value, 1)


def rounded_scalars(genome: ScenarioGenome) -> ScenarioGenome | None:
    """``genome`` with every scalar knob rounded; ``None`` if already round."""
    fields = {}
    for name in (
        "bandwidth_mbps",
        "rtt_ms",
        "buffer_kb",
        "duration_s",
        "noise_severity",
    ):
        value = getattr(genome, name)
        floor = 0.0 if name == "noise_severity" else 0.1
        rounded = max(_round_param(value), floor)
        if rounded != value:
            fields[name] = rounded
    if not fields:
        return None
    return replace(genome, **fields)


# ----------------------------------------------------------------------
# Seeded sampling
# ----------------------------------------------------------------------
def _sample_step(rng: Rng, duration_s: float) -> TimelineStep:
    """One random link-dynamics step within the run's duration."""
    kind = rng.choice(["bandwidth-step", "delay-step", "outage", "loss-step", "flap"])
    at_s = rng.uniform(0.1 * duration_s, 0.8 * duration_s)
    if kind == "bandwidth-step":
        return BandwidthStep(at_s=at_s, bandwidth_mbps=rng.uniform(2.0, 40.0))
    if kind == "delay-step":
        return DelayStep(at_s=at_s, delay_ms=rng.uniform(5.0, 120.0))
    if kind == "outage":
        return Outage(start_s=at_s, end_s=at_s + rng.uniform(0.1, 0.6))
    if kind == "loss-step":
        return LossStep(at_s=at_s, loss_rate=rng.uniform(0.0, 0.08))
    period_s = rng.uniform(0.5, 3.0)
    return BandwidthFlap(
        start_s=at_s,
        end_s=at_s + rng.uniform(2.0, 0.9 * duration_s),
        period_s=period_s,
        low_mbps=rng.uniform(1.0, 8.0),
        high_mbps=rng.uniform(10.0, 50.0),
    )


def _sample_timeline(rng: Rng, duration_s: float) -> Timeline:
    n_steps = rng.randint(0, 3)
    steps = sorted(
        (_sample_step(rng, duration_s) for _ in range(n_steps)),
        key=_start_key,
    )
    return Timeline(tuple(steps), label="sampled").perturb(
        rng, time_jitter_s=0.0, magnitude_frac=0.0
    )


def _start_key(step: TimelineStep) -> float:
    return step_start_s(step)


def _sample_traffic(rng: Rng, duration_s: float) -> tuple[FlowSpec, ...]:
    flows: list[FlowSpec] = []
    for _ in range(rng.randint(0, 2)):
        protocol = rng.choice(list(HOSTILE_PROTOCOLS))
        start_s = rng.uniform(0.0, 0.4 * duration_s)
        if protocol == "burst-flood":
            params = {
                "burst_packets": rng.randint(8, 96),
                "period_s": rng.uniform(0.1, 1.0),
            }
        else:
            params = {
                "on_mbps": rng.uniform(2.0, 30.0),
                "on_s": rng.uniform(0.2, 2.0),
                "off_s": rng.uniform(0.2, 2.0),
            }
        flows.append(FlowSpec(protocol, start_time=start_s, kwargs=params))
    if rng.random() < 0.3:
        flows.append(
            FlowSpec(
                rng.choice(list(CROSS_PRIMARY_PROTOCOLS)),
                start_time=rng.uniform(0.0, 0.4 * duration_s),
            )
        )
    return tuple(flows)


def sample_genome(rng: Rng, *, duration_s: float = 8.0) -> ScenarioGenome:
    """One random scenario genome drawn entirely from ``rng``."""
    bandwidth_mbps = rng.uniform(*_BW_RANGE_MBPS)
    rtt_ms = rng.uniform(*_RTT_RANGE_MS)
    bdp_kb = bandwidth_mbps * 1e6 * (rtt_ms / 1e3) / 8.0 / 1e3
    buffer_kb = max(10.0, bdp_kb * rng.uniform(*_BUFFER_RANGE_BDP))
    noise_severity = rng.uniform(*_NOISE_RANGE) if rng.random() < 0.4 else 0.0
    return ScenarioGenome(
        bandwidth_mbps=bandwidth_mbps,
        rtt_ms=rtt_ms,
        buffer_kb=buffer_kb,
        duration_s=duration_s,
        noise_severity=noise_severity,
        timeline=_sample_timeline(rng, duration_s),
        traffic=_sample_traffic(rng, duration_s),
        label="sampled",
    )


# ----------------------------------------------------------------------
# Mutation / crossover
# ----------------------------------------------------------------------
def mutate(genome: ScenarioGenome, rng: Rng) -> ScenarioGenome:
    """One mutated copy of ``genome`` (always a valid genome)."""
    choice = rng.random()
    if choice < 0.3:
        # Jitter the link scalars.
        return replace(
            genome,
            bandwidth_mbps=max(1.0, genome.bandwidth_mbps * rng.uniform(0.7, 1.3)),
            rtt_ms=max(2.0, genome.rtt_ms * rng.uniform(0.7, 1.3)),
            buffer_kb=max(10.0, genome.buffer_kb * rng.uniform(0.7, 1.3)),
            noise_severity=min(
                2.0, max(0.0, genome.noise_severity + rng.uniform(-0.3, 0.3))
            ),
            label="mutated",
        )
    if choice < 0.5:
        # Perturb the timeline in place.
        return replace(
            genome,
            timeline=genome.timeline.perturb(
                rng, time_jitter_s=0.5, magnitude_frac=0.25
            ),
            label="mutated",
        )
    if choice < 0.7:
        # Add or drop one timeline step.
        steps = list(genome.timeline.steps)
        if steps and rng.random() < 0.5:
            steps.pop(rng.randrange(len(steps)))
        else:
            steps.append(_sample_step(rng, genome.duration_s))
        steps.sort(key=_start_key)
        timeline = Timeline(tuple(steps), label=genome.timeline.label).perturb(
            rng, time_jitter_s=0.0, magnitude_frac=0.0
        )
        return replace(genome, timeline=timeline, label="mutated")
    # Add, drop, or resample a traffic flow.
    flows = list(genome.traffic)
    if flows and rng.random() < 0.5:
        flows.pop(rng.randrange(len(flows)))
    else:
        flows.extend(_sample_traffic(rng, genome.duration_s))
        flows = flows[:4]  # keep evaluations bounded
    return replace(genome, traffic=tuple(flows), label="mutated")


def crossover(a: ScenarioGenome, b: ScenarioGenome, rng: Rng) -> ScenarioGenome:
    """Recombine two genomes: link from one, dynamics/traffic mixed."""
    link_parent, other = (a, b) if rng.random() < 0.5 else (b, a)
    timeline = a.timeline if rng.random() < 0.5 else b.timeline
    traffic = tuple(
        flow for flow in a.traffic + b.traffic if rng.random() < 0.5
    )[:4]
    return ScenarioGenome(
        bandwidth_mbps=link_parent.bandwidth_mbps,
        rtt_ms=link_parent.rtt_ms,
        buffer_kb=link_parent.buffer_kb,
        duration_s=link_parent.duration_s,
        noise_severity=other.noise_severity if rng.random() < 0.3 else link_parent.noise_severity,
        timeline=timeline,
        topology=link_parent.topology,
        traffic=traffic,
        label="crossover",
    )
