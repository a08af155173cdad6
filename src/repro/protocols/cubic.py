"""TCP CUBIC (Ha, Rhee, Xu 2008; RFC 8312) on the window-sender base.

Implements slow start, the cubic window growth function with fast
convergence, the TCP-friendly region, and multiplicative decrease with
beta = 0.7.  Loss episodes are collapsed so one congestion event causes
one reduction (losses of packets sent before the reduction are ignored).
"""

from __future__ import annotations

from .base import CWND_CHANGE, AckInfo, WindowSender


class CubicSender(WindowSender):
    """TCP CUBIC congestion control."""

    C = 0.4
    beta = 0.7
    min_cwnd = 2.0

    def __init__(self, name: str = "cubic"):
        super().__init__(name)
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self._epoch_start: float | None = None
        self._k = 0.0
        self._origin = 0.0
        self._recovery_end = 0.0  # losses of packets sent before this are old news
        self._ack_count_since_epoch = 0.0

    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
            return
        now = self.sim.now
        if self._epoch_start is None:
            self._epoch_start = now
            self._ack_count_since_epoch = 0.0
            if self.cwnd < self.w_max:
                self._k = ((self.w_max - self.cwnd) / self.C) ** (1.0 / 3.0)
            else:
                self._k = 0.0
            self._origin = max(self.cwnd, self.w_max)
        t = now - self._epoch_start
        rtt = self.srtt if self.srtt is not None else 0.0
        target = self._origin + self.C * (t + rtt - self._k) ** 3
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            # Tiny probing increment so the window is never frozen.
            self.cwnd += 0.01 / self.cwnd
        # TCP-friendly region (standard-TCP estimate since the epoch).
        self._ack_count_since_epoch += 1.0
        if rtt > 0:
            w_est = self.w_max * self.beta + (
                3.0 * (1.0 - self.beta) / (1.0 + self.beta)
            ) * (t / rtt)
            if w_est > self.cwnd:
                self.cwnd = w_est

    def on_loss(self, seq: int, sent_time: float) -> None:
        if sent_time < self._recovery_end:
            return  # same congestion episode
        now = self.sim.now
        self._recovery_end = now
        # Fast convergence: release bandwidth faster when w_max shrinks.
        if self.cwnd < self.w_max:
            self.w_max = self.cwnd * (2.0 - self.beta) / 2.0
        else:
            self.w_max = self.cwnd
        self.cwnd = max(self.min_cwnd, self.cwnd * self.beta)
        self.ssthresh = self.cwnd
        self._epoch_start = None
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "cubic:loss")

    def on_timeout(self) -> None:
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2.0)
        self.cwnd = self.min_cwnd
        self._epoch_start = None
        self._recovery_end = self.sim.now
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "cubic:timeout")


class RenoSender(WindowSender):
    """TCP NewReno-style AIMD, kept as a simple reference baseline."""

    min_cwnd = 2.0

    def __init__(self, name: str = "reno"):
        super().__init__(name)
        self.ssthresh = float("inf")
        self._recovery_end = 0.0

    def on_ack(self, info: AckInfo) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def on_loss(self, seq: int, sent_time: float) -> None:
        if sent_time < self._recovery_end:
            return
        self._recovery_end = self.sim.now
        self.cwnd = max(self.min_cwnd, self.cwnd / 2.0)
        self.ssthresh = self.cwnd
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "reno:loss")

    def on_timeout(self) -> None:
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2.0)
        self.cwnd = self.min_cwnd
        self._recovery_end = self.sim.now
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "reno:timeout")
