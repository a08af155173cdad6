"""TCP Vegas (Brakmo et al. 1994) — the classic delay-based baseline.

Referenced by the paper's related work as the ancestor of delay-based
congestion control.  Vegas compares the expected throughput
(``cwnd / base_rtt``) with the actual (``cwnd / rtt``); the difference,
in packets, estimates how much of the window sits in the queue.  Once
per RTT: below ``alpha`` queued packets, grow; above ``beta``, shrink.
"""

from __future__ import annotations

from .base import CWND_CHANGE, AckInfo, WindowSender


class VegasSender(WindowSender):
    """TCP Vegas congestion control."""

    alpha = 2.0
    beta = 4.0
    gamma = 1.0  # slow-start exit threshold (queued packets)
    min_cwnd = 2.0

    def __init__(self, name: str = "vegas"):
        super().__init__(name)
        self._base_rtt: float | None = None
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._epoch_start = 0.0
        self._slow_start = True
        self._recovery_end = 0.0

    def _diff_packets(self, mean_rtt: float) -> float:
        expected = self.cwnd / self._base_rtt
        actual = self.cwnd / mean_rtt
        return (expected - actual) * self._base_rtt

    def on_ack(self, info: AckInfo) -> None:
        if self._base_rtt is None or info.rtt < self._base_rtt:
            self._base_rtt = info.rtt
        self._rtt_sum += info.rtt
        self._rtt_count += 1
        now = self.sim.now
        if now - self._epoch_start < (self.srtt or info.rtt):
            return  # one adjustment per RTT
        mean_rtt = self._rtt_sum / self._rtt_count
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._epoch_start = now
        diff = self._diff_packets(mean_rtt)
        if self._slow_start:
            if diff > self.gamma:
                self._slow_start = False
                self.cwnd = max(self.min_cwnd, self.cwnd * 0.75)
            else:
                self.cwnd *= 2.0
            return
        if diff < self.alpha:
            self.cwnd += 1.0
        elif diff > self.beta:
            self.cwnd = max(self.min_cwnd, self.cwnd - 1.0)

    def on_loss(self, seq: int, sent_time: float) -> None:
        if sent_time < self._recovery_end:
            return
        self._recovery_end = self.sim.now
        self._slow_start = False
        self.cwnd = max(self.min_cwnd, self.cwnd * 0.75)
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "vegas:loss")

    def on_timeout(self) -> None:
        self.cwnd = self.min_cwnd
        self._slow_start = False
        if self.tracer is not None:
            self.trace(CWND_CHANGE, self.cwnd, "vegas:timeout")
