"""Gradient-ascent rate control (PCC Vivace's controller with Proteus's
majority rule), §3 and §5 of the paper.

The controller is *decision driven*: the sender feeds it completed monitor
intervals in order, and asks for the rate to use whenever it opens a new
MI.  Because an MI's result only arrives roughly one RTT after the MI
closes, the controller keeps transmitting at its current base rate
("filler" MIs) while a decision is pending — the same pipelining the
user-space PCC implementation exhibits.

States:

* ``STARTING`` — double the rate each MI until utility drops, then revert
  one step and probe.
* ``PROBING`` — run ``probe_pairs`` pairs of MIs at rate*(1 +/- epsilon)
  in random order per pair.  Vivace uses 2 pairs and requires both to
  agree; Proteus uses 3 pairs and takes the majority vote (§5, "Majority
  Rule").
* ``MOVING`` — step in the decided direction with step size
  ``theta0 * m * gamma`` (confidence ``m`` doubles on each consistent
  step), clipped to the dynamic change boundary
  ``omega_k = min(omega_base + (k-1) * omega_step, omega_max)`` of the
  current rate.  A utility decrease reverts the last step and returns to
  ``PROBING``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Rng
from .monitor import MonitorInterval
from .tracepoint import tracepoint

DECISION = tracepoint("rate.decision", "reason", "rate_bps")
DECISION_VOTES = tracepoint("rate.decision", "reason", "rate_bps", "votes")
DECISION_GRADIENT = tracepoint("rate.decision", "reason", "rate_bps", "votes", "gradient")
DECISION_STEP = tracepoint("rate.decision", "reason", "rate_bps", "step_k")


@dataclass
class RateControlConfig:
    """Tunables for the gradient controller."""

    epsilon: float = 0.05
    probe_pairs: int = 3  # Proteus; Vivace uses 2
    require_unanimous: bool = False  # Vivace semantics when pairs == 2
    theta0_mbps: float = 1.0  # Mbps step per unit utility-gradient
    confidence_cap: float = 64.0
    omega_base: float = 0.05
    omega_step: float = 0.10
    omega_max: float = 0.50
    min_rate_bps: float = 64_000.0
    # Emergency brake (see RateController.brake): immediate multiplicative
    # decrease on loss-overloaded intervals instead of waiting out a full
    # probing round, mirroring the user-space PCC implementation's
    # reaction to utility collapse.
    emergency_brake: bool = True
    brake_factor: float = 0.7


class RateController:
    """Online gradient-ascent controller over MI utilities."""

    def __init__(
        self,
        initial_rate_bps: float,
        config: RateControlConfig | None = None,
        rng: Rng | None = None,
    ) -> None:
        self.config = config if config is not None else RateControlConfig()
        self.rng = rng if rng is not None else Rng(0)
        self.rate_bps = max(self.config.min_rate_bps, initial_rate_bps)
        self.state = "STARTING"
        # STARTING bookkeeping.
        self._last_start_mi: tuple[float, float] | None = None  # (rate, utility)
        self._start_pending = 0  # issued start-MIs awaiting results
        # PROBING bookkeeping.
        self._plan: list[tuple[float, str]] = []  # (rate, tag) queue
        self._probe_results: dict[str, float] = {}  # tag -> utility
        self._probe_base = self.rate_bps
        self._pending_probe_tags: set[str] = set()
        self._probe_round = 0
        # MOVING bookkeeping.
        self._gradient = 0.0  # utility units per Mbps
        self._direction = 0
        self._confidence = 1.0
        self._step_k = 0
        self._prev_decision: tuple[float, float] | None = None  # (rate, utility)
        self.decisions = 0  # total state-machine decisions (for tests)
        # Observability hook: called as ``hook(shape, reason, rate_bps,
        # *extra)`` with one of the ``rate.decision`` shapes above at every
        # state-machine decision.  The owning sender wires it to its trace
        # door; None (the default) costs one branch.
        self.trace_hook = None

    def _decided(self, shape, *values) -> None:
        if self.trace_hook is not None:
            self.trace_hook(shape, *values)

    # ------------------------------------------------------------------
    # Sender-facing API
    # ------------------------------------------------------------------
    def next_rate(self) -> tuple[float, str]:
        """Rate and tag for the MI the sender is about to open."""
        if self.state == "STARTING":
            rate = self.rate_bps
            if self._start_pending >= 4:
                # Results are not coming back (e.g. application-limited
                # startup): hold instead of doubling unboundedly.
                return rate, "filler"
            tag = f"start:{rate:.0f}"
            self._start_pending += 1
            # Double ahead without waiting (bounded overshoot, like PCC).
            self.rate_bps = rate * 2.0
            return rate, tag
        if self._plan:
            rate, tag = self._plan.pop(0)
            return rate, tag
        return self.rate_bps, "filler"

    def on_result(
        self,
        mi: MonitorInterval,
        utility: float | None,
        overloaded: bool = False,
    ) -> None:
        """Feed one completed MI (in completion order).

        ``utility=None`` marks a discarded interval (application-limited or
        paused mid-MI); a discarded probe/move interval restarts probing so
        the controller never waits on a result that will not arrive.
        ``overloaded=True`` (loss penalty alone beats any reward) triggers
        the emergency brake instead of a gradient decision.
        """
        tag = mi.tag if mi.tag is not None else "filler"
        if tag.startswith("start:") and self._start_pending > 0:
            self._start_pending -= 1
        if overloaded and self.config.emergency_brake:
            self._brake(mi.rate_bps)
            return
        if utility is None:
            if (self.state == "PROBING" and tag in self._pending_probe_tags) or (
                self.state == "MOVING" and tag.startswith("move:")
            ):
                self._enter_probing()
            return
        if self.state == "STARTING" and tag.startswith("start:"):
            self._starting_result(mi.rate_bps, utility)
        elif self.state == "PROBING" and tag in self._pending_probe_tags:
            self._pending_probe_tags.discard(tag)
            self._probe_results[tag] = utility
            if (not self._pending_probe_tags and not self._plan) or (
                self._majority_already_decided()
            ):
                self._probe_decide()
        elif self.state == "MOVING" and tag.startswith("move:"):
            self._moving_result(mi.rate_bps, utility)
        # Filler MIs carry no decision weight.

    def on_timeout(self) -> None:
        """Severe stall: halve the rate and re-probe."""
        self.rate_bps = max(self.config.min_rate_bps, self.rate_bps / 2.0)
        self._enter_probing()
        self.decisions += 1
        self._decided(DECISION, "timeout:halve", self.rate_bps)

    def _brake(self, mi_rate_bps: float) -> None:
        """Emergency multiplicative decrease on a loss-overloaded interval.

        Fired when an interval's loss penalty alone outweighs any possible
        throughput reward (``x^t < c * x * L``) — an unambiguous overload
        where gradient stepping is too slow.
        """
        if self.state == "STARTING":
            # Startup has pre-doubled rate_bps ahead of results; any
            # loss-overloaded interval ends the startup unconditionally.
            self.rate_bps = max(
                self.config.min_rate_bps, mi_rate_bps * self.config.brake_factor
            )
            self.decisions += 1
            self._enter_probing()
            self._decided(DECISION, "brake:startup", self.rate_bps)
            return
        if mi_rate_bps < 0.95 * self.rate_bps:
            # Stale interval from an already-reverted episode: restart the
            # probing round so no probe tag is left dangling.
            if self.state == "PROBING":
                self._enter_probing()
            return
        self.rate_bps = max(
            self.config.min_rate_bps,
            min(self.rate_bps, mi_rate_bps) * self.config.brake_factor,
        )
        self.decisions += 1
        self._enter_probing()
        self._decided(DECISION, "brake", self.rate_bps)

    def restart(self, rate_bps: float | None = None) -> None:
        """Re-enter STARTING, e.g. after an application-idle period.

        A sender that parked at a low rate while the application had no
        data (full playback buffer) must rediscover the available
        bandwidth quickly; STARTING's doubling does this in a handful of
        MIs, exactly like a fresh flow.
        """
        if rate_bps is not None:
            self.rate_bps = max(self.config.min_rate_bps, rate_bps)
        self.state = "STARTING"
        self._last_start_mi = None
        self._plan = []
        self._pending_probe_tags = set()
        self._probe_results = {}
        self._decided(DECISION, "restart", self.rate_bps)

    # ------------------------------------------------------------------
    # STARTING
    # ------------------------------------------------------------------
    def _starting_result(self, rate_bps: float, utility: float) -> None:
        if self._last_start_mi is not None:
            prev_rate, prev_utility = self._last_start_mi
            if utility < prev_utility:
                # Overshot: return to the last good rate and probe.
                self.rate_bps = max(self.config.min_rate_bps, prev_rate)
                self.decisions += 1
                self._enter_probing()
                self._decided(DECISION, "start:revert", self.rate_bps)
                return
        self._last_start_mi = (rate_bps, utility)

    # ------------------------------------------------------------------
    # PROBING
    # ------------------------------------------------------------------
    def _enter_probing(self) -> None:
        self.state = "PROBING"
        self._probe_base = self.rate_bps
        self._probe_round += 1
        self._plan = []
        self._probe_results = {}
        self._pending_probe_tags = set()
        eps = self.config.epsilon
        hi = self._probe_base * (1.0 + eps)
        lo = max(self.config.min_rate_bps, self._probe_base * (1.0 - eps))
        for pair in range(self.config.probe_pairs):
            hi_tag = f"probe:{self._probe_round}:{pair}:hi"
            lo_tag = f"probe:{self._probe_round}:{pair}:lo"
            ordered = [(hi, hi_tag), (lo, lo_tag)]
            if self.rng.random() < 0.5:
                ordered.reverse()
            self._plan.extend(ordered)
            self._pending_probe_tags.update((hi_tag, lo_tag))

    def _majority_already_decided(self) -> bool:
        """Early decision: enough completed pairs agree that the remaining
        ones cannot change the majority (only in majority-vote mode)."""
        if self.config.probe_pairs < 3 or self.config.require_unanimous:
            return False
        votes = 0
        completed = 0
        for pair in range(self.config.probe_pairs):
            u_hi = self._probe_results.get(f"probe:{self._probe_round}:{pair}:hi")
            u_lo = self._probe_results.get(f"probe:{self._probe_round}:{pair}:lo")
            if u_hi is None or u_lo is None:
                continue
            completed += 1
            if u_hi > u_lo:
                votes += 1
            elif u_lo > u_hi:
                votes -= 1
        remaining = self.config.probe_pairs - completed
        return abs(votes) > remaining

    def _probe_decide(self) -> None:
        eps = self.config.epsilon
        hi_rate = self._probe_base * (1.0 + eps) / 1e6
        lo_rate = max(self.config.min_rate_bps, self._probe_base * (1.0 - eps)) / 1e6
        votes = 0
        gradients: list[float] = []
        for pair in range(self.config.probe_pairs):
            u_hi = self._probe_results.get(f"probe:{self._probe_round}:{pair}:hi")
            u_lo = self._probe_results.get(f"probe:{self._probe_round}:{pair}:lo")
            if u_hi is None or u_lo is None:
                continue
            if u_hi > u_lo:
                votes += 1
            elif u_lo > u_hi:
                votes -= 1
            if hi_rate > lo_rate:
                gradients.append((u_hi - u_lo) / (hi_rate - lo_rate))
        self.decisions += 1
        unanimous_needed = self.config.require_unanimous or self.config.probe_pairs < 3
        threshold = self.config.probe_pairs if unanimous_needed else 1
        if abs(votes) < threshold or not gradients:
            self._enter_probing()  # inconsistent: probe again at same base
            self._decided(DECISION_VOTES, "probe:again", self.rate_bps, votes)
            return
        direction = 1 if votes > 0 else -1
        avg_gradient = sum(gradients) / len(gradients)
        # Reference point for the first MOVING comparison: the probe MI in
        # the chosen direction (its rate and mean utility).
        side = "hi" if direction > 0 else "lo"
        side_utils = [
            self._probe_results[f"probe:{self._probe_round}:{pair}:{side}"]
            for pair in range(self.config.probe_pairs)
            if f"probe:{self._probe_round}:{pair}:{side}" in self._probe_results
        ]
        ref_rate = (hi_rate if direction > 0 else lo_rate) * 1e6
        ref_utility = sum(side_utils) / len(side_utils)
        self._enter_moving(direction, avg_gradient, (ref_rate, ref_utility))
        self._decided(
            DECISION_GRADIENT,
            "probe:up" if direction > 0 else "probe:down",
            self.rate_bps,
            votes,
            avg_gradient,
        )

    # ------------------------------------------------------------------
    # MOVING
    # ------------------------------------------------------------------
    def _enter_moving(
        self,
        direction: int,
        gradient: float,
        reference: tuple[float, float] | None = None,
    ) -> None:
        self.state = "MOVING"
        self._direction = direction
        self._gradient = direction * abs(gradient)
        self._confidence = 1.0
        self._step_k = 1
        self._prev_decision = reference
        self._apply_move_step()

    def _omega(self) -> float:
        config = self.config
        return min(
            config.omega_base + (self._step_k - 1) * config.omega_step,
            config.omega_max,
        )

    def _apply_move_step(self) -> None:
        config = self.config
        step_mbps = config.theta0_mbps * self._confidence * self._gradient
        bound_mbps = self._omega() * self.rate_bps / 1e6
        if abs(step_mbps) > bound_mbps:
            step_mbps = bound_mbps if step_mbps > 0 else -bound_mbps
        self.rate_bps = max(config.min_rate_bps, self.rate_bps + step_mbps * 1e6)
        self._plan = [(self.rate_bps, f"move:{self._step_k}")]

    def _moving_result(self, rate_bps: float, utility: float) -> None:
        self.decisions += 1
        if self._prev_decision is not None:
            prev_rate, prev_utility = self._prev_decision
            if utility < prev_utility:
                # Utility fell: revert the step and go back to probing.
                self.rate_bps = max(self.config.min_rate_bps, prev_rate)
                self._enter_probing()
                self._decided(DECISION, "move:revert", self.rate_bps)
                return
            if abs(rate_bps - prev_rate) > 1e-9:
                self._gradient = (utility - prev_utility) / (
                    (rate_bps - prev_rate) / 1e6
                )
            self._confidence = min(
                self.config.confidence_cap, self._confidence * 2.0
            )
        self._prev_decision = (rate_bps, utility)
        self._step_k += 1
        self._apply_move_step()
        self._decided(DECISION_STEP, "move:step", self.rate_bps, self._step_k)
