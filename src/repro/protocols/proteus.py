"""The Proteus sender: monitor intervals + utility library + rate control.

This is the paper's primary contribution assembled (Fig 1's architecture):
packet-level events are aggregated per monitor interval, run through the
noise-tolerance pipeline (§5), scored by the selected utility function
(§4), and fed to the gradient-ascent rate controller (§3/§5).

The utility function can be swapped at any time — mid-flow — via
:meth:`set_utility`, which is the paper's *flexibility* goal (one codebase
and one running controller that is a primary, a scavenger, or a hybrid,
selected by the application).
"""

from __future__ import annotations

from collections import deque

from ..core.monitor import MonitorInterval
from ..core.noise_tolerance import (
    AckIntervalFilter,
    NoiseToleranceConfig,
    NoiseTolerancePipeline,
)
from ..core.rate_control import RateControlConfig, RateController
from ..core.rng import Rng
from ..core.tracepoint import tracepoint
from ..core.utility import HybridUtility, UtilityFunction, make_utility
from ..sim.engine import Event, Simulator
from ..sim.flow import Flow
from .base import AckInfo, RateSender

MIN_MI_DURATION_S = 0.010
MIN_PACKETS_PER_MI = 8
OVERLOAD_PERSISTENCE_MIS = 3

RTT_ACCEPT = tracepoint("rtt_filter.accept", "seq", "rtt_s")
RTT_REJECT = tracepoint("rtt_filter.reject", "seq", "rtt_s")
MI_START = tracepoint("mi.start", "mi_id", "tag", "rate_bps", "duration_s")
# An MI's utility terms exist only once it is scored, so a discarded
# one carries its identity and counters alone.
MI_DISCARD = tracepoint(
    "mi.discard", "reason",
    "mi_id", "tag", "rate_bps", "duration_s", "n_sent", "n_acked", "n_lost", "utility",
)
MI_END = tracepoint(
    "mi.end",
    "mi_id", "tag", "rate_bps", "duration_s", "n_sent", "n_acked", "n_lost", "utility",
    "throughput_mbps", "loss_rate", "avg_rtt_s", "rtt_gradient", "rtt_deviation_s",
)
# The Proteus-H switching threshold in force from this row on: the
# initial one when a traced sender starts, then every set_threshold.
THRESHOLD_CHANGE = tracepoint("threshold.change", "threshold_bps")


class ProteusSender(RateSender):
    """Rate-based sender driven by the Proteus utility framework.

    Args:
        utility: A :class:`UtilityFunction` or a library name
            (``"proteus-p"``, ``"proteus-s"``, ``"proteus-h"``,
            ``"vivace"``, ``"allegro"``).
        noise_config: Noise-tolerance switches; defaults to all-on
            (Proteus).  The Vivace baseline passes all-off.
        control_config: Rate-controller tunables; Proteus defaults to the
            3-pair majority rule.
        seed: Seeds the controller's probe-order randomness.
    """

    def __init__(
        self,
        utility: UtilityFunction | str = "proteus-p",
        name: str | None = None,
        initial_rate_bps: float = 2e6,
        noise_config: NoiseToleranceConfig | None = None,
        control_config: RateControlConfig | None = None,
        seed: int = 0,
    ) -> None:
        if isinstance(utility, str):
            utility = make_utility(utility)
        super().__init__(name or f"proteus[{utility.name}]", initial_rate_bps)
        self.utility = utility
        self.noise_config = (
            noise_config if noise_config is not None else NoiseToleranceConfig()
        )
        if control_config is None:
            control_config = RateControlConfig(
                probe_pairs=3 if self.noise_config.majority_rule else 2
            )
        self.controller = RateController(
            initial_rate_bps, control_config, Rng(seed)
        )
        self.pipeline = NoiseTolerancePipeline(self.noise_config)
        self.ack_filter = (
            AckIntervalFilter(self.noise_config.ack_ratio_threshold)
            if self.noise_config.ack_filter
            else None
        )
        self._mi_counter = 0
        self._current_mi: MonitorInterval | None = None
        self._pending: deque[MonitorInterval] = deque()
        self._seq_to_mi: dict[int, MonitorInterval] = {}
        self._mi_close_event: Event | None = None
        self._last_send_time = 0.0
        self._overload_streak = 0
        self.mi_log: list[MonitorInterval] = []
        self.keep_mi_log = False  # opt-in; MIs are many in long runs

    def bind(self, sim: Simulator, flow: Flow) -> None:
        super().bind(sim, flow)
        tracer = self.tracer
        if tracer is not None:
            # rate.decision rows, as ``self.trace`` records them but with
            # no reference back to this sender: the controller is the
            # sender's, so a bound method would close a reference cycle.
            flow_id = flow.flow_id
            self.controller.trace_hook = lambda shape, *values: tracer.record(
                (shape, sim.now, flow_id, None, *values)
            )

    # ------------------------------------------------------------------
    # Application-facing API (the paper's "simple API call")
    # ------------------------------------------------------------------
    def set_utility(self, utility: UtilityFunction | str) -> None:
        """Swap the utility function live (primary <-> scavenger <-> hybrid)."""
        if isinstance(utility, str):
            utility = make_utility(utility)
        self.utility = utility

    def set_threshold(self, threshold_bps: float) -> None:
        """Update the Proteus-H switching threshold (cross-layer signal).

        A threshold that jumps well above the current rate re-opens
        primary-mode headroom the controller should claim quickly
        (e.g. the playback buffer drained, or the emergency rule fired);
        restart bandwidth discovery rather than inching up by gradient
        steps from a scavenged-down rate.
        """
        if not isinstance(self.utility, HybridUtility):
            raise TypeError("set_threshold requires the proteus-h utility")
        old = self.utility.threshold_bps
        self.utility.set_threshold(threshold_bps)
        self.trace(THRESHOLD_CHANGE, threshold_bps)
        if (
            self.started
            and not self.stopped
            and threshold_bps > 2.0 * old
            and self.rate_bps < 0.5 * threshold_bps
        ):
            self.controller.restart()

    # ------------------------------------------------------------------
    # MI lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        super().on_start()
        if isinstance(self.utility, HybridUtility):
            self.trace(THRESHOLD_CHANGE, self.utility.threshold_bps)
        self._begin_mi()

    def stop(self) -> None:
        super().stop()
        self._cancel_mi_close()

    def pause(self) -> None:
        super().pause()
        self._abort_current_mi()

    def resume(self) -> None:
        super().resume()
        if self.started and not self.stopped and self._current_mi is None:
            self._begin_mi()

    def _cancel_mi_close(self) -> None:
        if self._mi_close_event is not None:
            self._mi_close_event.cancel()
            self._mi_close_event = None

    def _mi_duration(self, rate_bps: float) -> float:
        rtt = self.srtt if self.srtt is not None else self.flow.base_rtt()
        packet_floor = MIN_PACKETS_PER_MI * self.mss * 8.0 / max(rate_bps, 1.0)
        return max(MIN_MI_DURATION_S, rtt, packet_floor)

    def _begin_mi(self) -> None:
        if self.stopped or self.paused:
            return
        rate, tag = self.controller.next_rate()
        self.set_rate(rate, reason=tag)
        self._mi_counter += 1
        mi = MonitorInterval(
            self._mi_counter, rate, self.sim.now, self._mi_duration(rate)
        )
        mi.tag = tag
        self._current_mi = mi
        self._pending.append(mi)
        self._cancel_mi_close()
        self._mi_close_event = self.sim.schedule(mi.duration_s, self._close_mi)
        if self.tracer is not None:
            self.trace(MI_START, mi.mi_id, tag, rate, mi.duration_s)

    def ff_rate_stable_until(self) -> float | None:
        """Hybrid fast-forward: the send rate cannot change before the
        monitor interval closes — every rate decision happens in
        ``_begin_mi``, which only runs from the armed MI-close event
        (cross-layer ``set_threshold`` and idle-restart paths also defer
        the new rate to the next MI).  Bursting up to that boundary is
        therefore exact with respect to pacing."""
        if self._mi_close_event is not None:
            return self._mi_close_event.time
        return None

    def _close_mi(self) -> None:
        self._mi_close_event = None
        mi = self._current_mi
        if mi is not None:
            mi.closed = True
            self._current_mi = None
            self._drain_completed()
        self._begin_mi()

    def _abort_current_mi(self) -> None:
        """Discard the open MI (pause/app-limited); controller is told."""
        self._cancel_mi_close()
        mi = self._current_mi
        if mi is not None:
            mi.closed = True
            mi.tag = "discarded:" + (mi.tag or "")
            self._current_mi = None
            if self.tracer is not None:
                self.trace(
                    MI_DISCARD, "aborted", mi.mi_id, mi.tag, mi.rate_bps, mi.duration_s,
                    mi.n_sent, mi.n_acked, mi.n_lost, mi.utility,
                )
            self.controller.on_result(mi, None)
            self._drain_completed()

    def _drain_completed(self) -> None:
        pending = self._pending
        while pending and pending[0].is_complete():
            mi = pending.popleft()
            self._finalize_mi(mi)

    def _finalize_mi(self, mi: MonitorInterval) -> None:
        if mi.tag is not None and mi.tag.startswith("discarded:"):
            return  # controller was already informed on abort
        if mi.n_sent == 0 or mi.n_acked == 0 or mi.app_limited():
            # Application-limited intervals carry no information about the
            # network's response to the planned rate.
            if self.tracer is not None:
                self.trace(
                    MI_DISCARD, "app-limited", mi.mi_id, mi.tag, mi.rate_bps, mi.duration_s,
                    mi.n_sent, mi.n_acked, mi.n_lost, mi.utility,
                )
            self.controller.on_result(mi, None)
            return
        metrics = mi.compute_metrics()
        filtered = self.pipeline.filter_metrics(metrics)
        mi.metrics = filtered
        mi.utility = self.utility(filtered)
        if self.tracer is not None:
            self.trace(
                MI_END, mi.mi_id, mi.tag, mi.rate_bps, mi.duration_s,
                mi.n_sent, mi.n_acked, mi.n_lost, mi.utility,
                filtered.throughput_mbps, filtered.loss_rate, filtered.avg_rtt_s,
                filtered.rtt_gradient, filtered.rtt_deviation_s,
            )
        if self.keep_mi_log:
            self.mi_log.append(mi)
        # Persistence filter: a single high-loss MI can be sampling noise;
        # several in a row mean the queue is genuinely jammed.
        if self.utility.loss_overloaded(filtered):
            self._overload_streak += 1
        else:
            self._overload_streak = 0
        overloaded = self._overload_streak >= OVERLOAD_PERSISTENCE_MIS
        if overloaded:
            self._overload_streak = 0
        self.controller.on_result(mi, mi.utility, overloaded=overloaded)

    # ------------------------------------------------------------------
    # Packet events
    # ------------------------------------------------------------------
    def on_sent(self, seq: int, size: int) -> None:
        self._last_send_time = self.sim.now
        mi = self._current_mi
        if mi is not None:
            mi.record_send(size)
            self._seq_to_mi[seq] = mi

    def on_data_available(self) -> None:
        super().on_data_available()
        # Coming back from an application-idle period (e.g. a full
        # playback buffer): restart bandwidth discovery so a rate parked
        # near the floor ramps back within a few MIs.
        if (
            self.started
            and not self.stopped
            and self._current_mi is not None
            and self.sim.now - self._last_send_time > 2.0 * self._current_mi.duration_s
        ):
            self.controller.restart()
            self._abort_current_mi()
            self._begin_mi()

    def on_ack(self, info: AckInfo) -> None:
        mi = self._seq_to_mi.pop(info.seq, None)
        if mi is not None:
            use_sample = True
            if self.ack_filter is not None:
                use_sample = self.ack_filter.accept(
                    info.ack_time, info.rtt, srtt=self.srtt
                )
                if self.tracer is not None:
                    self.tracer.record(
                        (RTT_ACCEPT if use_sample else RTT_REJECT, self.sim.now,
                         self.flow.flow_id, None, info.seq, info.rtt)
                    )
            if use_sample:
                mi.record_ack(info.sent_time, info.rtt, info.nbytes)
            else:
                # The packet still counts as delivered for loss accounting,
                # but its RTT sample is excluded (§5, per-ACK filtering).
                mi.n_acked += 1
                mi.bytes_acked += info.nbytes
            self._drain_completed()

    def on_loss(self, seq: int, sent_time: float) -> None:
        mi = self._seq_to_mi.pop(seq, None)
        if mi is not None:
            mi.record_loss()
            self._drain_completed()

    def on_timeout(self) -> None:
        self.controller.on_timeout()
