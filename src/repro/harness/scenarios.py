"""Standard experiment scenarios from the paper's evaluation (§6).

:class:`LinkConfig` captures one bottleneck configuration; the module
constants are the setups the paper names explicitly:

* ``EMULAB_DEFAULT`` — 50 Mbps, 30 ms RTT (used "unless otherwise
  specified"), with the shallow (75 KB = 0.4 BDP) and large (375 KB =
  2 BDP) buffer variants of §6.2;
* ``FIG2_LINK`` — 100 Mbps, 60 ms, 1500 KB (2 BDP) for the competition-
  indicator study;
* :func:`config_matrix` — the 180-configuration robustness matrix of
  Fig 8;
* :func:`wifi_sites` — the noise-model stand-ins for the paper's four
  WiFi sites x 16 AWS paths.

The second half of the module is the declarative **timeline spec**: a
:class:`Timeline` is a tuple of serialisable step dataclasses (bandwidth
steps and flaps, delay shifts, outage windows, trace playback,
Gilbert-Elliott burst loss) that resolves to primitive
:class:`~repro.sim.dynamics.LinkEvent` objects applied by the runner
mid-run.  Because the spec round-trips through :meth:`Timeline.to_dict`,
it participates in the result-cache key: editing only the timeline
invalidates cached runs (see :mod:`repro.harness.cache`).

The third section is the declarative **topology spec**:
:class:`TopologySpec` names a graph shape (dumbbell, parking-lot,
multi-dumbbell), a congested-hop count, and a per-hop queue discipline,
builds the :class:`~repro.sim.topology.Topology` for a run, and
serialises into the same cache key / JSON machinery as timelines (see
``docs/TOPOLOGY.md``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from ..core.rng import Rng
from ..sim.aqm import (
    CoDelDiscipline,
    HeadDropDiscipline,
    RandomDropDiscipline,
    REDDiscipline,
    TailDropDiscipline,
)
from ..sim.dynamics import LinkEvent
from ..sim.noise import NoiseModel, wifi_noise
from ..sim.topology import Dumbbell, Topology


@dataclass(frozen=True)
class LinkConfig:
    """One bottleneck configuration."""

    bandwidth_mbps: float
    rtt_ms: float
    buffer_kb: float
    loss_rate: float = 0.0
    noise_severity: float = 0.0  # forward-path WiFi-like noise
    reverse_noise_severity: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0 or self.rtt_ms <= 0 or self.buffer_kb <= 0:
            raise ValueError("bandwidth, rtt and buffer must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate:g}")
        if self.noise_severity < 0 or self.reverse_noise_severity < 0:
            raise ValueError("noise severities must be non-negative")

    @property
    def bandwidth_bps(self) -> float:
        return self.bandwidth_mbps * 1e6

    @property
    def rtt_s(self) -> float:
        return self.rtt_ms / 1e3

    @property
    def buffer_bytes(self) -> float:
        return self.buffer_kb * 1e3

    @property
    def bdp_bytes(self) -> float:
        return self.bandwidth_bps * self.rtt_s / 8.0

    @property
    def buffer_bdp(self) -> float:
        return self.buffer_bytes / self.bdp_bytes

    def to_dict(self) -> dict:
        """The fields by name, in declaration order (``asdict`` without
        its deep copy: every field is a number or a string)."""
        return {
            "bandwidth_mbps": self.bandwidth_mbps,
            "rtt_ms": self.rtt_ms,
            "buffer_kb": self.buffer_kb,
            "loss_rate": self.loss_rate,
            "noise_severity": self.noise_severity,
            "reverse_noise_severity": self.reverse_noise_severity,
            "label": self.label,
        }

    def with_buffer_kb(self, buffer_kb: float) -> "LinkConfig":
        return replace(self, buffer_kb=buffer_kb)

    def with_buffer_bdp(self, multiple: float) -> "LinkConfig":
        return replace(self, buffer_kb=multiple * self.bdp_bytes / 1e3)

    def with_loss(self, loss_rate: float) -> "LinkConfig":
        return replace(self, loss_rate=loss_rate)

    def make_noise(self) -> NoiseModel | None:
        if self.noise_severity > 0:
            return wifi_noise(self.noise_severity)
        return None

    def make_reverse_noise(self) -> NoiseModel | None:
        if self.reverse_noise_severity > 0:
            return wifi_noise(self.reverse_noise_severity)
        return None


EMULAB_DEFAULT = LinkConfig(
    bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0, label="emulab-default"
)
EMULAB_SHALLOW = EMULAB_DEFAULT.with_buffer_kb(75.0)  # 0.4 BDP (§6.2)
FIG2_LINK = LinkConfig(
    bandwidth_mbps=100.0, rtt_ms=60.0, buffer_kb=1500.0, label="fig2"
)

PRIMARY_PROTOCOLS = ("cubic", "bbr", "copa", "proteus-p", "vivace")
SCAVENGER_PROTOCOLS = ("proteus-s", "ledbat", "ledbat-25")

MATRIX_BANDWIDTHS_MBPS = (20.0, 50.0, 100.0, 200.0, 300.0, 500.0)
MATRIX_RTTS_MS = (5.0, 10.0, 30.0, 60.0, 100.0, 200.0)
MATRIX_BUFFER_BDP = (0.2, 0.5, 1.0, 2.0, 5.0)


def config_matrix(
    bandwidths_mbps=MATRIX_BANDWIDTHS_MBPS,
    rtts_ms=MATRIX_RTTS_MS,
    buffer_bdps=MATRIX_BUFFER_BDP,
) -> list[LinkConfig]:
    """The Fig 8 robustness matrix (180 configs at full scale)."""
    configs: list[LinkConfig] = []
    for bw in bandwidths_mbps:
        for rtt in rtts_ms:
            base = LinkConfig(bandwidth_mbps=bw, rtt_ms=rtt, buffer_kb=1.0)
            for mult in buffer_bdps:
                config = base.with_buffer_bdp(mult)
                configs.append(
                    replace(config, label=f"{bw:g}mbps-{rtt:g}ms-{mult:g}bdp")
                )
    return configs


def wifi_sites(n_sites: int = 4, n_paths: int = 4) -> list[LinkConfig]:
    """WiFi scenario matrix standing in for the paper's site x AWS grid.

    Each site gets a noise severity (residential milder, restaurant
    noisier); each path a different bandwidth/RTT, covering near and far
    AWS regions.
    """
    severities = [0.6, 0.9, 1.3, 1.8][:n_sites]
    path_params = [
        (40.0, 30.0),
        (30.0, 60.0),
        (25.0, 120.0),
        (20.0, 200.0),
    ][:n_paths]
    configs: list[LinkConfig] = []
    for site, severity in enumerate(severities):
        for path, (bw, rtt) in enumerate(path_params):
            config = LinkConfig(
                bandwidth_mbps=bw,
                rtt_ms=rtt,
                buffer_kb=1.5 * bw * rtt / 8.0,  # 1.5 BDP in KB
                noise_severity=severity,
                reverse_noise_severity=severity,
                label=f"site{site}-path{path}",
            )
            configs.append(config)
    return configs


# ----------------------------------------------------------------------
# Declarative link-dynamics timelines
# ----------------------------------------------------------------------
BOTTLENECK = "bottleneck"
"""Default target link of timeline steps (the dumbbell's forward link)."""


@dataclass(frozen=True)
class BandwidthStep:
    """Set the link rate to ``bandwidth_mbps`` at ``at_s``."""

    at_s: float
    bandwidth_mbps: float
    link: str = BOTTLENECK

    kind = "bandwidth-step"

    def __post_init__(self) -> None:
        if self.at_s < 0 or self.bandwidth_mbps <= 0:
            raise ValueError("at_s must be >= 0 and bandwidth_mbps positive")

    def events(self) -> list[LinkEvent]:
        return [
            LinkEvent(self.at_s, self.link, "bandwidth", (self.bandwidth_mbps * 1e6,))
        ]


@dataclass(frozen=True)
class DelayStep:
    """Set the one-way propagation delay to ``delay_ms`` at ``at_s``."""

    at_s: float
    delay_ms: float
    link: str = BOTTLENECK

    kind = "delay-step"

    def __post_init__(self) -> None:
        if self.at_s < 0 or self.delay_ms < 0:
            raise ValueError("at_s and delay_ms must be non-negative")

    def events(self) -> list[LinkEvent]:
        return [LinkEvent(self.at_s, self.link, "delay", (self.delay_ms / 1e3,))]


@dataclass(frozen=True)
class Outage:
    """Drop every packet offered during ``[start_s, end_s)``."""

    start_s: float
    end_s: float
    link: str = BOTTLENECK

    kind = "outage"

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError("need 0 <= start_s < end_s")

    def events(self) -> list[LinkEvent]:
        return [
            LinkEvent(self.start_s, self.link, "down"),
            LinkEvent(self.end_s, self.link, "up"),
        ]


@dataclass(frozen=True)
class LossStep:
    """Set i.i.d. random loss to ``loss_rate`` at ``at_s``.

    Clears any stateful (Gilbert-Elliott) loss model on the link, so the
    two loss mechanisms never run at once.
    """

    at_s: float
    loss_rate: float
    link: str = BOTTLENECK

    kind = "loss-step"

    def __post_init__(self) -> None:
        if self.at_s < 0 or not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("at_s must be >= 0 and loss_rate in [0, 1)")

    def events(self) -> list[LinkEvent]:
        return [LinkEvent(self.at_s, self.link, "loss", (self.loss_rate,))]


@dataclass(frozen=True)
class GilbertLoss:
    """Install a Gilbert-Elliott burst-loss channel at ``at_s``.

    See :class:`repro.sim.dynamics.GilbertElliott` for the chain's
    semantics; the stationary loss rate is
    ``p_enter_bad * loss_bad / (p_enter_bad + p_exit_bad)`` for
    ``loss_good = 0``.
    """

    at_s: float
    p_enter_bad: float
    p_exit_bad: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    link: str = BOTTLENECK

    kind = "gilbert-loss"

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        for p in (self.p_enter_bad, self.p_exit_bad, self.loss_good, self.loss_bad):
            if not 0.0 <= p <= 1.0:
                raise ValueError("Gilbert-Elliott parameters are probabilities")
        if self.p_exit_bad <= 0.0:
            raise ValueError("p_exit_bad must be positive")

    def events(self) -> list[LinkEvent]:
        return [
            LinkEvent(
                self.at_s,
                self.link,
                "gilbert",
                (self.p_enter_bad, self.p_exit_bad, self.loss_good, self.loss_bad),
            )
        ]


@dataclass(frozen=True)
class BandwidthFlap:
    """Alternate the link rate between ``low_mbps`` and ``high_mbps``.

    Starting at ``start_s`` the rate drops to ``low_mbps``, recovers to
    ``high_mbps`` half a period later, and so on; at ``end_s`` the rate
    is restored to ``high_mbps`` regardless of phase.  Models a flapping
    WiFi link whose effective capacity collapses during interference
    bursts.
    """

    start_s: float
    end_s: float
    period_s: float
    low_mbps: float
    high_mbps: float
    link: str = BOTTLENECK

    kind = "bandwidth-flap"

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError("need 0 <= start_s < end_s")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.low_mbps <= 0 or self.high_mbps <= 0:
            raise ValueError("rates must be positive")

    def events(self) -> list[LinkEvent]:
        events: list[LinkEvent] = []
        half_s = self.period_s / 2.0
        k = 0
        while True:
            # Index-based times: no accumulated float drift across flaps.
            at_s = self.start_s + k * half_s
            if at_s >= self.end_s:
                break
            rate_mbps = self.low_mbps if k % 2 == 0 else self.high_mbps
            events.append(LinkEvent(at_s, self.link, "bandwidth", (rate_mbps * 1e6,)))
            k += 1
        events.append(LinkEvent(self.end_s, self.link, "bandwidth", (self.high_mbps * 1e6,)))
        return events


@dataclass(frozen=True)
class BandwidthTrace:
    """Play back a recorded bandwidth trace, one sample per interval.

    Sample ``k`` of ``bandwidths_mbps`` takes effect at
    ``start_s + k * interval_s`` — the mobility-style playback used for
    cellular/walking traces.
    """

    start_s: float
    interval_s: float
    bandwidths_mbps: tuple[float, ...]
    link: str = BOTTLENECK

    kind = "bandwidth-trace"

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.interval_s <= 0:
            raise ValueError("need start_s >= 0 and interval_s > 0")
        if not self.bandwidths_mbps:
            raise ValueError("bandwidths_mbps must be non-empty")
        if any(bw <= 0 for bw in self.bandwidths_mbps):
            raise ValueError("trace rates must be positive")
        # JSON round-trips lists; the spec itself stays hashable.
        object.__setattr__(self, "bandwidths_mbps", tuple(self.bandwidths_mbps))

    def events(self) -> list[LinkEvent]:
        return [
            LinkEvent(
                self.start_s + k * self.interval_s,
                self.link,
                "bandwidth",
                (bw * 1e6,),
            )
            for k, bw in enumerate(self.bandwidths_mbps)
        ]


STEP_KINDS = {
    step.kind: step
    for step in (
        BandwidthStep,
        DelayStep,
        Outage,
        LossStep,
        GilbertLoss,
        BandwidthFlap,
        BandwidthTrace,
    )
}

TimelineStep = (
    BandwidthStep
    | DelayStep
    | Outage
    | LossStep
    | GilbertLoss
    | BandwidthFlap
    | BandwidthTrace
)


@dataclass(frozen=True)
class Timeline:
    """An ordered collection of link-dynamics steps.

    The spec is pure data: :meth:`resolve` expands it to primitive link
    events for :class:`~repro.sim.dynamics.TimelineDriver`, and
    :meth:`to_dict` serialises it for JSON files and the result-cache
    key.  ``label`` names the timeline in reports.
    """

    steps: tuple[TimelineStep, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def resolve(self) -> list[LinkEvent]:
        """Primitive events, sorted by time (ties keep step order)."""
        events = [event for step in self.steps for event in step.events()]
        events.sort(key=lambda event: event.time_s)
        return events

    def to_dict(self) -> dict:
        """JSON-serialisable form; exact inverse of :func:`timeline_from_dict`."""
        steps = []
        for step in self.steps:
            record = asdict(step)
            record["kind"] = step.kind
            steps.append(record)
        return {"label": self.label, "steps": steps}

    def validate(self) -> "Timeline":
        """Check timeline-level invariants; returns ``self`` if sound.

        Step-level invariants (non-negative times, positive rates) are
        enforced by each step's constructor; this adds the cross-step
        ones mutation can break: steps must be sorted by start time, and
        outage windows on the same link must not overlap.  Raises
        :class:`ValueError` with the offending step, so a bad mutated
        timeline fails fast instead of deep inside the simulator.
        """
        last_start = 0.0
        outage_end: dict[str, float] = {}
        for i, step in enumerate(self.steps):
            start_s = step_start_s(step)
            if start_s < last_start:
                raise ValueError(
                    f"timeline steps must be sorted by start time: step {i} "
                    f"({step.kind}) starts at {start_s:g}s after a step "
                    f"starting at {last_start:g}s"
                )
            last_start = start_s
            if isinstance(step, Outage):
                prev_end = outage_end.get(step.link, 0.0)
                if step.start_s < prev_end:
                    raise ValueError(
                        f"overlapping outages on link {step.link!r}: step {i} "
                        f"starts at {step.start_s:g}s before the previous "
                        f"outage ends at {prev_end:g}s"
                    )
                outage_end[step.link] = step.end_s
            for field_name in ("bandwidth_mbps", "low_mbps", "high_mbps"):
                rate = getattr(step, field_name, None)
                if rate is not None and rate <= 0:
                    raise ValueError(
                        f"step {i} ({step.kind}) has non-positive "
                        f"{field_name}={rate!r}"
                    )
        return self

    def merge(self, other: "Timeline", label: str | None = None) -> "Timeline":
        """Combine two timelines into one sorted, validated timeline.

        Steps are stably ordered by start time (ties keep ``self`` before
        ``other``); the result is :meth:`validate`-d, so merging e.g. two
        outage schedules that overlap on the same link fails fast.
        """
        steps = sorted(self.steps + other.steps, key=step_start_s)
        if label is None:
            label = "+".join(part for part in (self.label, other.label) if part)
        return Timeline(tuple(steps), label=label).validate()

    def perturb(
        self,
        rng: Rng,
        *,
        time_jitter_s: float = 1.0,
        magnitude_frac: float = 0.2,
    ) -> "Timeline":
        """A jittered copy of this timeline — valid by construction.

        Each step's start time shifts by up to ``±time_jitter_s`` and its
        magnitudes (rates, delays, loss probabilities, periods) scale by
        up to ``±magnitude_frac``, all clamped to each step's legal
        range.  The steps are then re-sorted and outage windows nudged
        forward past any overlap the jitter introduced, so the result
        always passes :meth:`validate`.  Draws come only from ``rng``:
        the same seeded stream reproduces the same perturbation.
        """
        steps = [
            _perturb_step(step, rng, time_jitter_s, magnitude_frac)
            for step in self.steps
        ]
        steps.sort(key=step_start_s)
        # Repair outage overlaps introduced by the time jitter: slide
        # each outage forward to start at the previous one's end
        # (duration preserved), per link.
        outage_end: dict[str, float] = {}
        for i, step in enumerate(steps):
            if not isinstance(step, Outage):
                continue
            prev_end = outage_end.get(step.link, 0.0)
            if step.start_s < prev_end:
                duration_s = step.end_s - step.start_s
                step = replace(
                    step, start_s=prev_end, end_s=prev_end + duration_s
                )
                steps[i] = step
            outage_end[step.link] = step.end_s
        steps.sort(key=step_start_s)
        return Timeline(tuple(steps), label=self.label).validate()


def step_start_s(step: TimelineStep) -> float:
    """The simulated time at which ``step`` first takes effect."""
    at_s = getattr(step, "at_s", None)
    if at_s is not None:
        return at_s
    return step.start_s


def _jitter_time(at_s: float, rng: Rng, time_jitter_s: float) -> float:
    return max(0.0, at_s + rng.uniform(-time_jitter_s, time_jitter_s))


def _scale(value: float, rng: Rng, frac: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, value * (1.0 + rng.uniform(-frac, frac))))


def _perturb_step(
    step: TimelineStep, rng: Rng, time_jitter_s: float, frac: float
) -> TimelineStep:
    """One jittered copy of ``step``, clamped to its legal ranges.

    Every branch draws the same number of times from ``rng`` per field
    it perturbs, keeping the stream consumption deterministic per step
    kind.
    """
    if isinstance(step, BandwidthStep):
        return replace(
            step,
            at_s=_jitter_time(step.at_s, rng, time_jitter_s),
            bandwidth_mbps=_scale(step.bandwidth_mbps, rng, frac, 0.5, 1e4),
        )
    if isinstance(step, DelayStep):
        return replace(
            step,
            at_s=_jitter_time(step.at_s, rng, time_jitter_s),
            delay_ms=max(0.0, _scale(step.delay_ms, rng, frac, 0.0, 1e4)),
        )
    if isinstance(step, Outage):
        # Shift the whole window (duration preserved), then rescale the
        # duration with a floor so the outage never becomes empty.
        shift_s = rng.uniform(-time_jitter_s, time_jitter_s)
        start_s = max(0.0, step.start_s + shift_s)
        duration_s = _scale(step.end_s - step.start_s, rng, frac, 0.05, 1e4)
        return replace(step, start_s=start_s, end_s=start_s + duration_s)
    if isinstance(step, LossStep):
        return replace(
            step,
            at_s=_jitter_time(step.at_s, rng, time_jitter_s),
            loss_rate=_scale(step.loss_rate, rng, frac, 0.0, 0.95),
        )
    if isinstance(step, GilbertLoss):
        return replace(
            step,
            at_s=_jitter_time(step.at_s, rng, time_jitter_s),
            p_enter_bad=_scale(step.p_enter_bad, rng, frac, 0.0, 1.0),
            p_exit_bad=_scale(step.p_exit_bad, rng, frac, 1e-4, 1.0),
            loss_bad=_scale(step.loss_bad, rng, frac, 0.0, 1.0),
        )
    if isinstance(step, BandwidthFlap):
        shift_s = rng.uniform(-time_jitter_s, time_jitter_s)
        start_s = max(0.0, step.start_s + shift_s)
        duration_s = _scale(step.end_s - step.start_s, rng, frac, 0.1, 1e4)
        return replace(
            step,
            start_s=start_s,
            end_s=start_s + duration_s,
            period_s=_scale(step.period_s, rng, frac, 0.1, 1e3),
            low_mbps=_scale(step.low_mbps, rng, frac, 0.5, 1e4),
            high_mbps=_scale(step.high_mbps, rng, frac, 0.5, 1e4),
        )
    if isinstance(step, BandwidthTrace):
        return replace(
            step,
            start_s=_jitter_time(step.start_s, rng, time_jitter_s),
            interval_s=_scale(step.interval_s, rng, frac, 0.05, 1e3),
            bandwidths_mbps=tuple(
                _scale(bw, rng, frac, 0.5, 1e4) for bw in step.bandwidths_mbps
            ),
        )
    raise TypeError(f"unknown timeline step type {type(step).__name__}")


def timeline_from_dict(data: dict) -> Timeline:
    """Rebuild a :class:`Timeline` from :meth:`Timeline.to_dict` output."""
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise ValueError("timeline document must be a dict with a 'steps' list")
    steps = []
    for record in data["steps"]:
        record = dict(record)
        kind = record.pop("kind", None)
        cls = STEP_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown timeline step kind {kind!r}; "
                f"known kinds: {sorted(STEP_KINDS)}"
            )
        steps.append(cls(**record))
    return Timeline(tuple(steps), label=str(data.get("label", "")))


def _step_down() -> Timeline:
    """Primary-arrival emulation: capacity collapses 40 -> 10 Mbps at t=30 s."""
    return Timeline(
        (BandwidthStep(at_s=30.0, bandwidth_mbps=10.0),), label="step-down"
    )


def _flaky_wifi() -> Timeline:
    """Interference bursts: 5x capacity collapses plus a delay shift."""
    return Timeline(
        (
            BandwidthFlap(
                start_s=8.0, end_s=28.0, period_s=4.0, low_mbps=6.0, high_mbps=30.0
            ),
            DelayStep(at_s=8.0, delay_ms=25.0),
        ),
        label="flaky-wifi",
    )


def _mobility_trace() -> Timeline:
    """Walking-pace cellular trace: capacity wanders, briefly blacks out."""
    return Timeline(
        (
            BandwidthTrace(
                start_s=5.0,
                interval_s=3.0,
                bandwidths_mbps=(24.0, 16.0, 9.0, 4.0, 7.0, 14.0, 22.0, 30.0),
            ),
            Outage(start_s=17.5, end_s=18.5),
        ),
        label="mobility-trace",
    )


def _bursty_loss() -> Timeline:
    """Correlated loss runs: a Gilbert-Elliott channel switches on at t=10 s."""
    return Timeline(
        (
            GilbertLoss(at_s=10.0, p_enter_bad=0.01, p_exit_bad=0.25, loss_bad=0.5),
            LossStep(at_s=40.0, loss_rate=0.0),
        ),
        label="bursty-loss",
    )


TIMELINES = {
    "step-down": _step_down,
    "flaky-wifi": _flaky_wifi,
    "mobility-trace": _mobility_trace,
    "bursty-loss": _bursty_loss,
}
"""Named preset timelines (the paper-motivated dynamic scenarios)."""


def load_timeline(name_or_path: str) -> Timeline:
    """A preset timeline by name, or one loaded from a JSON file.

    Presets (:data:`TIMELINES`) win; anything else is treated as a path
    to a JSON document in the :meth:`Timeline.to_dict` format.
    """
    factory = TIMELINES.get(name_or_path)
    if factory is not None:
        return factory()
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(
            f"unknown timeline {name_or_path!r}: not a preset "
            f"({sorted(TIMELINES)}) and no such file"
        )
    return timeline_from_dict(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Declarative multi-hop topology specs
# ----------------------------------------------------------------------
TOPOLOGY_PRESETS = ("dumbbell", "parking-lot", "multi-dumbbell")
"""Graph shapes a :class:`TopologySpec` can name."""

_DISCIPLINES = {
    "taildrop": TailDropDiscipline,
    "head-drop": HeadDropDiscipline,
    "random-drop": RandomDropDiscipline,
    "red": REDDiscipline,
    "codel": CoDelDiscipline,
}

AQM_KINDS = ("", *_DISCIPLINES)
"""Per-hop queue disciplines; ``""`` keeps hops analytic (FIFO
:class:`~repro.sim.link.Link`), anything else makes the congested hops
event-based :class:`~repro.sim.aqm.DynamicLink` instances."""


@dataclass(frozen=True)
class TopologySpec:
    """Serialisable description of a multi-hop topology.

    Like :class:`Timeline`, the spec is pure data: :meth:`build`
    instantiates the graph against a simulator and a
    :class:`LinkConfig` (which supplies per-hop bandwidth, RTT, buffer,
    loss, and noise), and :meth:`to_dict` serialises it for JSON files
    and the result-cache key — editing only the topology invalidates
    cached runs.

    Args:
        preset: One of :data:`TOPOLOGY_PRESETS`.  ``"dumbbell"`` is the
            classic single bottleneck (with an AQM bottleneck when
            ``aqm`` is set), ``"parking-lot"`` chains ``n_hops``
            bottlenecks in series, ``"multi-dumbbell"`` fans ``n_hops``
            access bottlenecks into one shared core.
        n_hops: Congested hop count (parking-lot) or access-group count
            (multi-dumbbell); ignored by ``"dumbbell"``.
        aqm: Queue discipline on the congested hops, one of
            :data:`AQM_KINDS`.
        core_mbps: Shared-core rate for ``"multi-dumbbell"``; ``0``
            reuses the access rate (a congested core whenever more than
            one group is active).
        label: Name for reports and summaries.
    """

    preset: str = "parking-lot"
    n_hops: int = 2
    aqm: str = ""
    core_mbps: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.preset not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology preset {self.preset!r}; "
                f"expected one of {TOPOLOGY_PRESETS}"
            )
        if self.n_hops < 1:
            raise ValueError("n_hops must be >= 1")
        if self.aqm not in AQM_KINDS:
            raise ValueError(
                f"unknown aqm {self.aqm!r}; expected one of {AQM_KINDS}"
            )
        if self.core_mbps < 0:
            raise ValueError("core_mbps must be non-negative")

    def to_dict(self) -> dict:
        """JSON-serialisable form; exact inverse of :func:`topology_from_dict`."""
        record = asdict(self)
        record["kind"] = "topology"
        return record

    def make_discipline(self, config: LinkConfig):
        """A fresh discipline instance for one hop, or ``None`` for an
        analytic hop (disciplines carry per-queue state and must never
        be shared between links)."""
        if not self.aqm:
            return None
        return _DISCIPLINES[self.aqm](config.buffer_bytes)

    def build(self, sim, config: LinkConfig, rng: Rng | None = None) -> Topology:
        """Instantiate the topology graph for one run.

        Each preset is written once as :meth:`Topology.add_link` calls:
        the reverse links run at 40x the forward rate so ACKs never
        queue, and each link draws from the ``rng`` child labelled with
        its name.
        """
        if rng is None:
            rng = Rng(0)
        if self.preset == "dumbbell":
            return Dumbbell(
                sim,
                bandwidth_bps=config.bandwidth_bps,
                rtt_s=config.rtt_s,
                buffer_bytes=config.buffer_bytes,
                loss_rate=config.loss_rate,
                noise=config.make_noise(),
                reverse_noise=config.make_reverse_noise(),
                rng=rng,
                discipline=self.make_discipline(config),
            )
        net = Topology(sim, rng=rng)
        bandwidth_bps = config.bandwidth_bps
        buffer_bytes = config.buffer_bytes
        n = self.n_hops
        if self.preset == "parking-lot":
            # Nodes n0 .. n{n}; long flows cross every hop, and the delay
            # is split so their base RTT equals the config's.  Forward
            # latency noise models the last-mile hop.
            hop_delay_s = config.rtt_s / (2.0 * n)
            noise = config.make_noise()
            for i in range(n):
                net.add_link(
                    f"n{i}",
                    f"n{i + 1}",
                    bandwidth_bps=bandwidth_bps,
                    delay_s=hop_delay_s,
                    buffer_bytes=buffer_bytes,
                    discipline=self.make_discipline(config),
                    loss_rate=config.loss_rate,
                    noise=noise if i == n - 1 else None,
                    name=f"hop{i}",
                )
            for i in range(n, 0, -1):
                net.add_link(
                    f"n{i}",
                    f"n{i - 1}",
                    bandwidth_bps=bandwidth_bps * 40.0,
                    delay_s=hop_delay_s,
                    name=f"rev{i - 1}",
                )
            return net
        # multi-dumbbell: access groups s0 .. s{n-1} -> core -> sink,
        # every flow crossing its access bottleneck and the shared core.
        core_bps = self.core_mbps * 1e6 if self.core_mbps > 0 else bandwidth_bps
        quarter_s = config.rtt_s / 4.0
        for i in range(n):
            net.add_link(
                f"s{i}",
                "core",
                bandwidth_bps=bandwidth_bps,
                delay_s=quarter_s,
                buffer_bytes=buffer_bytes,
                loss_rate=config.loss_rate,
                name=f"access{i}",
            )
        net.monitor = net.add_link(
            "core",
            "sink",
            bandwidth_bps=core_bps,
            delay_s=quarter_s,
            buffer_bytes=buffer_bytes,
            discipline=self.make_discipline(config),
            noise=config.make_noise(),
            name="core",
        )
        net.add_link(
            "sink", "core", bandwidth_bps=core_bps * 40.0, delay_s=quarter_s,
            name="core-rev",
        )
        for i in range(n):
            net.add_link(
                "core",
                f"s{i}",
                bandwidth_bps=bandwidth_bps * 40.0,
                delay_s=quarter_s,
                name=f"access{i}-rev",
            )
        net.sources = tuple(f"s{i}" for i in range(n))
        return net


def topology_from_dict(data: dict) -> TopologySpec:
    """Rebuild a :class:`TopologySpec` from :meth:`TopologySpec.to_dict`."""
    if not isinstance(data, dict):
        raise ValueError("topology document must be a dict")
    record = dict(data)
    kind = record.pop("kind", "topology")
    if kind != "topology":
        raise ValueError(f"not a topology document (kind={kind!r})")
    return TopologySpec(**record)


TOPOLOGIES = {
    "parking-lot": lambda: TopologySpec(
        preset="parking-lot", n_hops=3, label="parking-lot"
    ),
    "parking-lot-codel": lambda: TopologySpec(
        preset="parking-lot", n_hops=3, aqm="codel", label="parking-lot-codel"
    ),
    "shared-core": lambda: TopologySpec(
        preset="multi-dumbbell", n_hops=4, label="shared-core"
    ),
    "dumbbell-codel": lambda: TopologySpec(
        preset="dumbbell", aqm="codel", label="dumbbell-codel"
    ),
    "dumbbell-red": lambda: TopologySpec(
        preset="dumbbell", aqm="red", label="dumbbell-red"
    ),
}
"""Named preset topologies for the CLI and scale scenarios."""


def load_topology(name_or_path: str) -> TopologySpec:
    """A preset topology by name, or one loaded from a JSON file.

    Presets (:data:`TOPOLOGIES`) win; anything else is treated as a path
    to a JSON document in the :meth:`TopologySpec.to_dict` format.
    """
    factory = TOPOLOGIES.get(name_or_path)
    if factory is not None:
        return factory()
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(
            f"unknown topology {name_or_path!r}: not a preset "
            f"({sorted(TOPOLOGIES)}) and no such file"
        )
    return topology_from_dict(json.loads(path.read_text()))
