"""LEDBAT (RFC 6817) — the scavenger baseline the paper argues against.

One-way delay is measured exactly through the simulator's timestamp echo
(standing in for the TCP timestamp option libutp relies on).  Base delay
keeps the RFC's ten one-minute-bucket history; the *latecomer advantage*
the paper highlights emerges naturally because a flow joining an
already-loaded bottleneck measures an inflated "base" delay.

The IETF-standard 100 ms target (``LedbatSender``) and the original
draft's 25 ms target (``Ledbat25Sender``) are both provided for the
Appendix B experiments.
"""

from __future__ import annotations

from collections import deque

from .base import CWND_CHANGE, AckInfo, WindowSender

BASE_HISTORY_BUCKETS = 10
BUCKET_SECONDS = 60.0
CURRENT_FILTER = 4  # current-delay filter: min of the last 4 samples


class LedbatSender(WindowSender):
    """RFC 6817 LEDBAT with configurable target extra delay."""

    gain = 1.0
    min_cwnd = 2.0
    allowed_increase = 1.0  # max cwnd growth per on_ack, in packets

    def __init__(self, name: str = "ledbat", target_s: float = 0.100):
        super().__init__(name)
        if target_s <= 0:
            raise ValueError("target_s must be positive")
        self.target_s = target_s
        # Per-minute minima of observed one-way delay (RFC 6817 §3.4.2).
        self._base_buckets: deque[float] = deque(maxlen=BASE_HISTORY_BUCKETS)
        self._bucket_start: float | None = None
        self._current: deque[float] = deque(maxlen=CURRENT_FILTER)
        self._last_decrease = -1.0
        # libutp-style slow start: exponential growth until the queueing
        # delay approaches the target (or a loss), then delay-based control.
        self.ssthresh = float("inf")
        self._slow_start = True

    # ------------------------------------------------------------------
    def _update_base_delay(self, now: float, owd: float) -> None:
        if self._bucket_start is None or now - self._bucket_start >= BUCKET_SECONDS:
            self._bucket_start = now
            self._base_buckets.append(owd)
        elif owd < self._base_buckets[-1]:
            self._base_buckets[-1] = owd

    def base_delay(self) -> float:
        return min(self._base_buckets)

    def queuing_delay(self) -> float:
        return min(self._current) - self.base_delay()

    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        now = self.sim.now
        owd = info.one_way_delay
        self._update_base_delay(now, owd)
        self._current.append(owd)
        queuing = self.queuing_delay()
        off_target = (self.target_s - queuing) / self.target_s
        if self._slow_start:
            if queuing >= 0.75 * self.target_s or self.cwnd >= self.ssthresh:
                self._slow_start = False
            else:
                self.cwnd += info.nbytes / self.mss
                return
        increase = self.gain * off_target * (info.nbytes / self.mss) / self.cwnd
        if increase > self.allowed_increase:
            increase = self.allowed_increase
        self.cwnd = max(self.min_cwnd, self.cwnd + increase)

    def on_loss(self, seq: int, sent_time: float) -> None:
        now = self.sim.now
        rtt = self.srtt if self.srtt is not None else 0.1
        if now - self._last_decrease < rtt:
            return  # at most one halving per RTT (RFC 6817 §2.4.2)
        self._last_decrease = now
        self.cwnd = max(self.min_cwnd, self.cwnd / 2.0)
        self.ssthresh = self.cwnd
        self._slow_start = False
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "ledbat:loss")

    def on_timeout(self) -> None:
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2.0)
        self.cwnd = self.min_cwnd
        self._slow_start = False
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "ledbat:timeout")


class Ledbat25Sender(LedbatSender):
    """LEDBAT with the original draft's 25 ms target (Appendix B)."""

    def __init__(self, name: str = "ledbat25"):
        super().__init__(name, target_s=0.025)
