"""LEDBAT++ (draft-irtf-iccrg-ledbat-plus-plus; Windows' scavenger).

The paper cites the Windows LEDBAT deployment [5, 7]; LEDBAT++ is the
revision that ships there.  Its changes over RFC 6817, reproduced here:

* a 60 ms target (lower than the IETF's 100 ms);
* multiplicative decrease proportional to queueing delay
  (``cwnd -= max(cwnd/2, GAIN * cwnd * qd/target)`` style — modelled as
  the standard additive controller plus a stronger over-target pull);
* **periodic slowdowns**: every ~9 x the time it took to ramp, the
  sender collapses its window to 2 packets for two RTTs to re-measure
  the base delay — the designed-in fix for the latecomer problem;
* slower-than-Reno additive growth (GAIN scaled by ssthresh ratio;
  modelled with gain = 1 but the slowdown machinery dominating).
"""

from __future__ import annotations

from .base import CWND_CHANGE, AckInfo
from .ledbat import LedbatSender

SLOWDOWN_HOLD_RTTS = 2.0
SLOWDOWN_FACTOR = 9.0


class LedbatPPSender(LedbatSender):
    """LEDBAT++ with periodic slowdowns and a 60 ms target."""

    def __init__(self, name: str = "ledbat++", target_s: float = 0.060):
        super().__init__(name, target_s=target_s)
        self._slowdown_until: float | None = None
        self._next_slowdown: float | None = None
        self._ramp_started: float | None = None
        # Infinite until the first slowdown: the initial ramp only ends
        # via the delay-target condition, not a window comparison.
        self._saved_cwnd = float("inf")
        self.slowdowns = 0

    def on_ack(self, info: AckInfo) -> None:
        now = self.sim.now
        rtt = self.srtt if self.srtt is not None else info.rtt
        if self._slowdown_until is not None:
            # Parked at minimum window: only collect base-delay samples.
            self._update_base_delay(now, info.one_way_delay)
            self._current.append(info.one_way_delay)
            if now >= self._slowdown_until:
                self._slowdown_until = None
                self._ramp_started = now
                self.cwnd = max(self.min_cwnd, self._saved_cwnd / 2.0)
            return
        if self._ramp_started is None:
            self._ramp_started = now
        super().on_ack(info)
        if self._next_slowdown is None:
            # The ramp ends when the window regains its pre-slowdown size
            # (or growth stalls at the delay target); the next slowdown is
            # scheduled 9x the ramp duration later, so the duty cycle of
            # slowdowns is bounded at ~10%.
            ramp_done = self.cwnd >= self._saved_cwnd or (
                not self._slow_start
                and self.queuing_delay() >= 0.9 * self.target_s
            )
            if ramp_done:
                ramp = max(now - self._ramp_started, 2.0 * rtt)
                self._next_slowdown = now + SLOWDOWN_FACTOR * ramp
        elif now >= self._next_slowdown:
            self._enter_slowdown(now, rtt)

    def _enter_slowdown(self, now: float, rtt: float) -> None:
        self.slowdowns += 1
        self._saved_cwnd = self.cwnd
        self.cwnd = self.min_cwnd
        self._slowdown_until = now + SLOWDOWN_HOLD_RTTS * rtt
        self._next_slowdown = None
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "ledbat++:slowdown")
