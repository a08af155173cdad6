"""Time-varying link dynamics: scripted mid-run events on live links.

The paper's evaluation leans on network *change* — flows crossing the
Proteus-H rate threshold as bandwidth shifts, wireless paths whose
capacity and delay flap, scavengers that must yield the moment a primary
arrives (§6).  A static link cannot express any of that.  This module is
the runtime half of the dynamics subsystem:

* :class:`LinkEvent` — one primitive, timestamped mutation of a named
  link (bandwidth, delay, outage up/down, loss-rate or loss-model
  change).  Declarative timelines (flaps, bandwidth-trace playback)
  live in :mod:`repro.harness.scenarios` and *resolve* to a sorted list
  of these primitives.
* :class:`TimelineDriver` — schedules every primitive on the simulator
  and applies it to the live link mid-run, keeping an ``applied`` log
  for telemetry (surfaced through reports and the result cache).
* :class:`GilbertElliott` — the classic two-state burst-loss channel:
  correlated loss runs rather than i.i.d. coin flips, which is exactly
  the impairment the noise-tolerance machinery must survive.
* :func:`cellular_events` — a seeded per-epoch random walk of a link's
  rate as ``bandwidth`` events: a timeline is the one way a link's rate
  changes.

Everything here is deterministic given the simulation seed: event times
come from the timeline spec, and the Gilbert-Elliott draws come from the
link's injected :class:`~repro.core.rng.Rng`, so a burst-loss pattern is
reproducible seed-for-seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .engine import SimulationError, Simulator
from ..core.rng import Rng

EVENT_KINDS = ("bandwidth", "delay", "down", "up", "loss", "gilbert")
"""Primitive event kinds understood by :class:`TimelineDriver`.

``bandwidth``  value = (bits_per_second,)
``delay``      value = (delay_seconds,)
``down``/``up`` value = () — outage window edges
``loss``       value = (loss_rate,) — clears any stateful loss model
``gilbert``    value = (p_enter_bad, p_exit_bad, loss_good, loss_bad)
"""


@dataclass(frozen=True)
class LinkEvent:
    """One primitive, timestamped mutation of a named link.

    ``value`` holds the kind-specific parameters as a flat float tuple so
    events serialize exactly (``float.hex`` round-trip) for the result
    cache and the telemetry log.
    """

    time_s: float
    link: str
    kind: str
    value: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("event time_s must be non-negative")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        if self.kind == "bandwidth":
            return f"bandwidth -> {self.value[0] / 1e6:g} Mbps"
        if self.kind == "delay":
            return f"delay -> {self.value[0] * 1e3:g} ms"
        if self.kind == "down":
            return "outage begins"
        if self.kind == "up":
            return "outage ends"
        if self.kind == "loss":
            return f"loss rate -> {self.value[0]:g}"
        p_enter, p_exit, loss_good, loss_bad = self.value
        return (
            f"gilbert-elliott loss on (enter={p_enter:g}, exit={p_exit:g}, "
            f"good={loss_good:g}, bad={loss_bad:g})"
        )


class GilbertElliott:
    """Two-state (good/bad) burst-loss channel model.

    The chain moves per packet: from good to bad with probability
    ``p_enter_bad``, back with ``p_exit_bad``; each state has its own
    per-packet loss probability.  The stationary loss rate is
    ``(p_enter * loss_bad + p_exit * loss_good) / (p_enter + p_exit)``
    and the mean loss-burst length in the bad state is ``1 / p_exit``
    packets — the correlated, bursty impairment that i.i.d. ``loss_rate``
    cannot express.
    """

    __slots__ = ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad", "bad", "bad_entries")

    def __init__(
        self,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for label, p in (
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be a probability in [0, 1]")
        if p_exit_bad <= 0.0:
            raise ValueError("p_exit_bad must be positive (the bad state must be escapable)")
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False
        self.bad_entries = 0  # telemetry: number of bad-state bursts entered

    def is_lost(self, rng: Rng) -> bool:
        """Advance the chain one packet and decide this packet's fate."""
        if self.bad:
            if rng.random() < self.p_exit_bad:
                self.bad = False
        elif rng.random() < self.p_enter_bad:
            self.bad = True
            self.bad_entries += 1
        p_loss = self.loss_bad if self.bad else self.loss_good
        if p_loss <= 0.0:
            return False
        if p_loss >= 1.0:
            return True
        return rng.random() < p_loss

    def stationary_loss_rate(self) -> float:
        """Long-run expected per-packet loss probability."""
        denom = self.p_enter_bad + self.p_exit_bad
        if denom <= 0.0:
            return self.loss_good
        bad_fraction = self.p_enter_bad / denom
        return bad_fraction * self.loss_bad + (1.0 - bad_fraction) * self.loss_good


class DynamicsError(SimulationError):
    """Raised for invalid timeline wiring (unknown link, bad event)."""


class TimelineDriver:
    """Applies a resolved event list to live links as the clock reaches it.

    Args:
        sim: The simulator the links belong to.
        links: Name -> link mapping; every event's ``link`` must resolve
            here (a dumbbell registers ``bottleneck`` and ``reverse``).
        events: Primitive :class:`LinkEvent` list (any order; scheduled
            by ``time_s``, ties broken by list position).

    The ``applied`` log records events in firing order — the per-link
    event telemetry that reports and the result cache surface.
    """

    def __init__(
        self,
        sim: Simulator,
        links: Mapping[str, Any],
        events: Sequence[LinkEvent],
    ):
        self.sim = sim
        self.links = dict(links)
        self.applied: list[LinkEvent] = []
        self._outages_open: dict[str, int] = {}
        # Per-link queue of pending event times, in firing order (the
        # heap fires ties in scheduling order, and a stable sort on
        # time_s preserves list order within a tie).  The head of each
        # queue is the link's fast-forward barrier: a collapsed round trip
        # (either fidelity mode) must not analytically advance a packet
        # past the next mutation.
        self._pending_times: dict[str, list[float]] = {}
        for event in events:
            link = self.links.get(event.link)
            if link is None:
                raise DynamicsError(
                    f"timeline event targets unknown link {event.link!r}; "
                    f"known links: {sorted(self.links)}"
                )
            self._validate(event, link)
            self._pending_times.setdefault(event.link, []).append(event.time_s)
            sim.schedule_fast_at(event.time_s, self._apply, event)
        for name, times in self._pending_times.items():
            times.sort()
            self.links[name].ff_barrier_s = times[0]

    @staticmethod
    def _validate(event: LinkEvent, link: Any) -> None:
        # ``loss``/``gilbert`` write attributes every link has (method
        # None): only their arity is checked.
        needed = {
            "bandwidth": ("set_bandwidth_bps", 1),
            "delay": ("set_delay_s", 1),
            "down": ("set_down", 0),
            "up": ("set_down", 0),
            "loss": (None, 1),
            "gilbert": (None, 4),
        }
        method, arity = needed[event.kind]
        if method is not None and not hasattr(link, method):
            raise DynamicsError(
                f"link {event.link!r} does not support {event.kind!r} events"
            )
        if len(event.value) != arity:
            raise DynamicsError(
                f"{event.kind!r} event expects {arity} value(s), "
                f"got {len(event.value)}"
            )

    def _apply(self, event: LinkEvent) -> None:
        link = self.links[event.link]
        if event.kind == "bandwidth":
            link.set_bandwidth_bps(event.value[0])
        elif event.kind == "delay":
            link.set_delay_s(event.value[0])
        elif event.kind == "down":
            link.set_down(True)
        elif event.kind == "up":
            link.set_down(False)
        elif event.kind == "loss":
            # A plain-rate event clears any stateful model so the two
            # loss mechanisms never run at once.
            link.loss_model = None
            link.loss_rate = event.value[0]
        else:  # "gilbert" — __post_init__ rejects anything else
            link.loss_model = GilbertElliott(*event.value)
        self.applied.append(event)
        # Advance the link's fast-forward barrier to the next pending
        # mutation (or clear it once the timeline for this link drains).
        times = self._pending_times.get(event.link)
        if times:
            times.pop(0)
            link.ff_barrier_s = times[0] if times else float("inf")



def cellular_events(
    link: str,
    mean_bps: float,
    duration_s: float,
    period_s: float = 2.0,
    depth: float = 0.6,
    seed: int = 0,
) -> list[LinkEvent]:
    """LTE-ish rate variation on ``link``: one ``bandwidth`` event per epoch.

    Epoch ``k`` starts at ``k * period_s`` and draws its rate uniformly
    from ``[mean * (1 - depth), mean * (1 + depth)]`` off its own
    ``cellular:{seed}:{k}`` stream — a coarse stand-in for cellular
    scheduling dynamics (§7.2 defers real LTE modelling to future work).
    Every epoch that starts before ``duration_s`` gets an event, epoch 0
    included, for a :class:`TimelineDriver`.
    """
    if mean_bps <= 0 or not 0 <= depth < 1 or period_s <= 0:
        raise ValueError("invalid cellular rate parameters")
    events = []
    epoch = 0
    while epoch * period_s < duration_s:
        draw = Rng(f"cellular:{seed}:{epoch}").random()
        rate_bps = mean_bps * (1.0 + depth * (2.0 * draw - 1.0))
        events.append(LinkEvent(epoch * period_s, link, "bandwidth", (rate_bps,)))
        epoch += 1
    return events
