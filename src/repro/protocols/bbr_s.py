"""BBR-S: the paper's §7.1 illustration of RTT-deviation yielding in BBR.

The modification mirrors the paper: keep a smoothed RTT deviation;
whenever it exceeds a threshold (20 ms in the paper), force the sender
into its minimum-RTT probing phase (in-flight parked at 4 packets) for at
least 40 ms.  Against primary BBR/CUBIC flows the forced probe-RTT
episodes repeat and BBR-S yields; among BBR-S flows the shared deviation
response keeps the split fair.

Calibration note (documented in DESIGN.md/EXPERIMENTS.md): the paper's
kernel implementation reads ``rttvar``, whose magnitude depends on ACK
aggregation and interrupt coalescing on real hardware.  In the simulator,
per-ACK RTT increments are tiny, so we measure the standard deviation of
RTT samples over the last ``window_rtts`` round trips (one PROBE_BW gain
cycle) — the same quantity at the timescale that competition actually
modulates — and keep the paper's 20 ms trigger against loss-based
competitors while documenting the default 10 ms trigger used for
latency-bounded competitors like BBR itself.
"""

from __future__ import annotations

from collections import deque

from ..core.tracepoint import tracepoint
from .base import AckInfo
from .bbr import BBRSender

DEVIATION_THRESHOLD_S = 0.004
FORCED_PROBE_RTT_S = 0.040
DEVIATION_WINDOW_RTTS = 60.0

YIELD = tracepoint("rate.decision", "reason", "rate_bps", "rtt_deviation_s")


class BBRScavengerSender(BBRSender):
    """BBR with RTT-deviation-triggered yielding (BBR-S)."""

    def __init__(
        self,
        name: str = "bbr-s",
        initial_rate_bps: float = 1.2e6,
        deviation_threshold_s: float = DEVIATION_THRESHOLD_S,
        forced_probe_rtt_s: float = FORCED_PROBE_RTT_S,
        window_rtts: float = DEVIATION_WINDOW_RTTS,
    ):
        super().__init__(name, initial_rate_bps=initial_rate_bps)
        self.deviation_threshold_s = deviation_threshold_s
        self.forced_probe_rtt_s = forced_probe_rtt_s
        self.window_rtts = window_rtts
        self._rtt_samples: deque[tuple[float, float]] = deque()
        self._rtt_sum = 0.0
        self._rtt_sq_sum = 0.0

    def rtt_deviation_s(self) -> float:
        """Std of RTT samples over the last ``window_rtts`` round trips."""
        n = len(self._rtt_samples)
        if n < 4:
            return 0.0
        mean = self._rtt_sum / n
        var = max(0.0, self._rtt_sq_sum / n - mean * mean)
        return var ** 0.5

    def _record_rtt(self, now: float, rtt: float) -> None:
        self._rtt_samples.append((now, rtt))
        self._rtt_sum += rtt
        self._rtt_sq_sum += rtt * rtt
        window = self.window_rtts * (self.srtt if self.srtt is not None else 0.1)
        cutoff = now - window
        samples = self._rtt_samples
        while samples and samples[0][0] < cutoff:
            _, old = samples.popleft()
            self._rtt_sum -= old
            self._rtt_sq_sum -= old * old

    def on_ack(self, info: AckInfo) -> None:
        super().on_ack(info)
        now = self.sim.now
        self._record_rtt(now, info.rtt)
        deviation = self.rtt_deviation_s()
        if self.state == "PROBE_RTT":
            # Stay parked while competition persists: extend the forced
            # probe so the sender holds 4 packets in flight until the
            # deviation signal clears.
            if (
                deviation > self.deviation_threshold_s
                and self._probe_rtt_done_at is not None
            ):
                self._probe_rtt_done_at = max(
                    self._probe_rtt_done_at, now + self.forced_probe_rtt_s
                )
            return
        if (
            self.state not in ("STARTUP", "DRAIN")
            and deviation > self.deviation_threshold_s
        ):
            if self.tracer is not None:
                self.trace(YIELD, "bbr-s:yield", self.rate_bps, deviation)
            self._enter_probe_rtt(now, min_duration_s=self.forced_probe_rtt_s)
            self._apply_control()
