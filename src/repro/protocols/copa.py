"""COPA (Arun & Balakrishnan, NSDI 2018), default mode.

COPA targets the rate ``1 / (delta * d_q)`` packets per RTT, where ``d_q``
is the standing queueing delay (RTT-standing minus the windowed minimum
RTT).  The window moves toward the target by ``v / (delta * cwnd)`` per
ACK, with the velocity ``v`` doubling after three consecutive same-sign
window changes.  Default mode does not react to packet loss directly,
matching the paper's Fig 4 (high random-loss tolerance).

Packets are paced at ``2 * cwnd / RTT-standing`` with an in-flight cap of
``cwnd``, as in the COPA paper.
"""

from __future__ import annotations

from collections import deque

from .base import CWND_CHANGE, AckInfo, RateSender

RTT_MIN_WINDOW_S = 10.0


class CopaSender(RateSender):
    """COPA congestion control (default mode)."""

    delta = 0.5
    min_cwnd = 2.0

    def __init__(self, name: str = "copa", initial_rate_bps: float = 1.0e6):
        super().__init__(name, initial_rate_bps=initial_rate_bps)
        self.cwnd = 10.0
        self.velocity = 1.0
        self._direction = 0  # +1 up, -1 down
        self._same_direction_rtts = 0
        self._last_cwnd = self.cwnd
        self._last_velocity_update = 0.0
        # Monotonic min-queues: (time, rtt) kept non-decreasing in rtt, so
        # the windowed minimum is O(1) amortised per ACK.
        self._standing_queue: deque[tuple[float, float]] = deque()
        self._min_queue: deque[tuple[float, float]] = deque()
        self.inflight_cap = self.cwnd

    # ------------------------------------------------------------------
    @staticmethod
    def _push_min(queue: deque[tuple[float, float]], now: float, rtt: float) -> None:
        while queue and queue[-1][1] >= rtt:
            queue.pop()
        queue.append((now, rtt))

    @staticmethod
    def _window_min(queue: deque[tuple[float, float]], cutoff: float) -> float | None:
        while queue and queue[0][0] < cutoff:
            queue.popleft()
        return queue[0][1] if queue else None

    def _rtt_standing(self, now: float) -> float | None:
        """Min RTT over the most recent srtt/2 (filters ACK-compression)."""
        if self.srtt is None:
            return None
        return self._window_min(self._standing_queue, now - self.srtt / 2.0)

    def _rtt_min(self, now: float) -> float | None:
        return self._window_min(self._min_queue, now - RTT_MIN_WINDOW_S)

    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        now = self.sim.now
        self._push_min(self._standing_queue, now, info.rtt)
        self._push_min(self._min_queue, now, info.rtt)
        standing = self._rtt_standing(now)
        floor = self._rtt_min(now)
        if standing is None or floor is None:
            return
        d_q = max(0.0, standing - floor)
        if d_q <= 1e-6:
            # Queue empty: target is effectively infinite, increase.
            self._move_window(up=True)
        else:
            target_rate_pps = 1.0 / (self.delta * d_q)  # packets per second
            current_rate_pps = self.cwnd / standing
            self._move_window(up=current_rate_pps <= target_rate_pps)
        self._update_velocity(now)
        # Pacing at 2 * cwnd / RTT-standing, in-flight capped at cwnd.
        self.set_rate(2.0 * self.cwnd * self.mss * 8.0 / standing, reason="copa:target")
        self.inflight_cap = self.cwnd

    def _move_window(self, up: bool) -> None:
        step = self.velocity / (self.delta * self.cwnd)
        if up:
            self.cwnd += step
        else:
            self.cwnd = max(self.min_cwnd, self.cwnd - step)

    def _update_velocity(self, now: float) -> None:
        if self.srtt is None or now - self._last_velocity_update < self.srtt:
            return
        direction = 1 if self.cwnd > self._last_cwnd else -1
        if direction == self._direction:
            self._same_direction_rtts += 1
            if self._same_direction_rtts >= 3:
                self.velocity = min(self.velocity * 2.0, self.cwnd)
        else:
            self.velocity = 1.0
            self._same_direction_rtts = 0
        self._direction = direction
        self._last_cwnd = self.cwnd
        self._last_velocity_update = now

    def on_timeout(self) -> None:
        self.cwnd = max(self.min_cwnd, self.cwnd / 2.0)
        self.velocity = 1.0
        self.inflight_cap = self.cwnd
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "copa:timeout")
