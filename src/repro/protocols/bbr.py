"""TCP BBR v1 (Cardwell et al. 2016), simplified to its control essentials.

The model-based loop is implemented faithfully enough to reproduce the
interaction behaviour the paper measures:

* STARTUP at 2/ln2 pacing gain until delivery rate plateaus for 3 rounds;
* DRAIN back to one BDP of in-flight data;
* PROBE_BW's eight-phase gain cycle (1.25, 0.75, 1 x6) — the periodic
  probing that inflates then drains the queue (and which Proteus-S reads
  as RTT deviation);
* PROBE_RTT every 10 s, parking in-flight at 4 packets for at least 200 ms;
* windowed max-filter for bottleneck bandwidth and min-filter for RTprop,
  and a 2 x BDP in-flight cap.

Loss is ignored (BBR v1 does not react to packet loss), which matches the
paper's Fig 4 where BBR tolerates random loss.
"""

from __future__ import annotations

from collections import deque

from ..core.rate_control import DECISION
from .base import AckInfo, RateSender

STARTUP_GAIN = 2.885  # 2 / ln(2)
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BW_WINDOW_ROUNDS = 10
PROBE_RTT_INTERVAL_S = 10.0
PROBE_RTT_DURATION_S = 0.2
PROBE_RTT_CWND_PKTS = 4
CWND_GAIN = 2.0


class BBRSender(RateSender):
    """Simplified BBR v1 sender."""

    def __init__(self, name: str = "bbr", initial_rate_bps: float = 1.2e6):
        super().__init__(name, initial_rate_bps=initial_rate_bps)
        self.state = "STARTUP"
        self.pacing_gain = STARTUP_GAIN
        # Bottleneck-bandwidth max filter: (round_index, sample_bps).
        self._bw_samples: deque[tuple[int, float]] = deque()
        self.btl_bw_bps = 0.0
        self.rtprop_s: float | None = None
        self._rtprop_stamp = 0.0
        # Round counting.
        self._round = 0
        self._round_end_seq = 0
        # STARTUP plateau detection.
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        # PROBE_BW cycle.
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        # PROBE_RTT bookkeeping.
        self._probe_rtt_done_at: float | None = None
        self._probe_rtt_min: float | None = None
        self._saved_state = "PROBE_BW"
        # Delivery-rate estimation over ~1 RTT of ACKs:
        # (ack time, bytes acked, send time of the acked packet).
        self._delivered: deque[tuple[float, int, float]] = deque()
        self._delivered_sum = 0

    # ------------------------------------------------------------------
    # Model estimation
    # ------------------------------------------------------------------
    def _delivery_rate_sample(self, now: float) -> float | None:
        window = self.srtt if self.srtt is not None else 0.1
        dq = self._delivered
        cutoff = now - window
        while dq and dq[0][0] < cutoff:
            self._delivered_sum -= dq.popleft()[1]
        if len(dq) < 2:
            return None
        # The BBR rate-sample rule: the interval is the larger of the ACK
        # span and the send span, so ACKs compressed on the way back
        # (noise, the FIFO guard) cannot inflate the rate past what was
        # sent.
        first, last = dq[0], dq[-1]
        span = max(last[0] - first[0], last[2] - first[2])
        if span <= 0:
            return None
        total = self._delivered_sum - first[1]
        return total * 8.0 / span

    def _update_model(self, info: AckInfo, now: float) -> None:
        self._delivered.append((now, info.nbytes, info.sent_time))
        self._delivered_sum += info.nbytes
        sample = self._delivery_rate_sample(now)
        if sample is not None:
            # Monotonic max-queue: amortised O(1) windowed maximum.
            samples = self._bw_samples
            while samples and samples[-1][1] <= sample:
                samples.pop()
            samples.append((self._round, sample))
            cutoff = self._round - BW_WINDOW_ROUNDS
            while samples and samples[0][0] < cutoff:
                samples.popleft()
            self.btl_bw_bps = samples[0][1] if samples else sample
        if self.rtprop_s is None or info.rtt <= self.rtprop_s:
            self.rtprop_s = info.rtt
            self._rtprop_stamp = now
        if self.state == "PROBE_RTT" and (
            self._probe_rtt_min is None or info.rtt < self._probe_rtt_min
        ):
            self._probe_rtt_min = info.rtt

    def _bdp_packets(self) -> float:
        if self.btl_bw_bps <= 0 or self.rtprop_s is None:
            return self.initial_cwnd_pkts()
        return self.btl_bw_bps * self.rtprop_s / (8.0 * self.mss)

    @staticmethod
    def initial_cwnd_pkts() -> float:
        return 10.0

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        now = self.sim.now
        if info.seq >= self._round_end_seq:
            self._round += 1
            self._round_end_seq = self.flow.last_seq
            self._on_round_start(now)
        self._update_model(info, now)
        self._advance_state(now)
        self._apply_control()

    def _on_round_start(self, now: float) -> None:
        if self.state == "STARTUP":
            if self.btl_bw_bps > self._full_bw * 1.25:
                self._full_bw = self.btl_bw_bps
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self.state = "DRAIN"
                    if self.tracer is not None:
                        self.trace(DECISION, "bbr:enter:DRAIN", self.rate_bps)

    def _advance_state(self, now: float) -> None:
        if self.state == "DRAIN":
            if self.inflight_packets() <= self._bdp_packets():
                self._enter_probe_bw(now)
        elif self.state == "PROBE_BW":
            phase_len = self.rtprop_s if self.rtprop_s is not None else 0.03
            if now - self._cycle_stamp > phase_len:
                self._cycle_stamp = now
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
                # Skip the 0.75 drain phase unless the queue needs draining.
                self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]
        elif self.state == "PROBE_RTT":
            if self._probe_rtt_done_at is not None and now >= self._probe_rtt_done_at:
                self._exit_probe_rtt(now)
        # Periodic RTprop refresh check (not during startup/drain).
        if (
            self.state in ("PROBE_BW",)
            and now - self._rtprop_stamp > PROBE_RTT_INTERVAL_S
        ):
            self._enter_probe_rtt(now)

    def _enter_probe_bw(self, now: float) -> None:
        self.state = "PROBE_BW"
        self._cycle_index = 0
        self._cycle_stamp = now
        self.pacing_gain = PROBE_BW_GAINS[0]
        if self.tracer is not None:
            self.trace(DECISION, "bbr:enter:PROBE_BW", self.rate_bps)

    def _enter_probe_rtt(self, now: float, min_duration_s: float | None = None) -> None:
        if self.state != "PROBE_RTT":
            self._saved_state = self.state
        self.state = "PROBE_RTT"
        if self.tracer is not None:
            self.trace(DECISION, "bbr:enter:PROBE_RTT", self.rate_bps)
        duration = min_duration_s if min_duration_s is not None else PROBE_RTT_DURATION_S
        self._probe_rtt_done_at = now + duration
        self._probe_rtt_min = None
        self.pacing_gain = 1.0

    def _exit_probe_rtt(self, now: float) -> None:
        # Adopt the drained-queue measurement as the new RTprop, even if it
        # is higher than the stale estimate (path may have changed).
        if self._probe_rtt_min is not None:
            self.rtprop_s = self._probe_rtt_min
        self._rtprop_stamp = now
        self._probe_rtt_done_at = None
        self._probe_rtt_min = None
        self._enter_probe_bw(now)

    # ------------------------------------------------------------------
    def _apply_control(self) -> None:
        if self.state == "PROBE_RTT":
            self.inflight_cap = PROBE_RTT_CWND_PKTS
            if self.btl_bw_bps > 0:
                self.set_rate(self.btl_bw_bps)
            return
        gain = {
            "STARTUP": STARTUP_GAIN,
            "DRAIN": DRAIN_GAIN,
            "PROBE_BW": self.pacing_gain,
        }[self.state]
        if self.btl_bw_bps > 0:
            self.set_rate(gain * self.btl_bw_bps)
        else:
            # No bandwidth estimate yet: keep doubling via STARTUP gain on
            # the current rate each ACK batch (bootstrap).
            self.set_rate(self.rate_bps * 1.05)
        cwnd_gain = CWND_GAIN if self.state != "STARTUP" else STARTUP_GAIN
        self.inflight_cap = max(
            self.initial_cwnd_pkts(), cwnd_gain * self._bdp_packets()
        )

    def on_loss(self, seq: int, sent_time: float) -> None:
        # BBR v1 does not react to individual packet losses.
        pass

    def on_timeout(self) -> None:
        # Restart conservatively after a stall.
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.state = "STARTUP"
        self.inflight_cap = self.initial_cwnd_pkts()
        if self.tracer is not None:
            self.trace(DECISION, "bbr:timeout:restart", self.rate_bps)
