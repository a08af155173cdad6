"""Monitor-interval (MI) lifecycle for the PCC family (§3).

A sender transmits at one rate per MI.  The MI stays *pending* after its
sending window closes until every packet sent during it has been either
acknowledged or declared lost, at which point the interval's metrics are
computed and the utility/rate-control pipeline runs.
"""

from __future__ import annotations

from .metrics import IntervalMetrics, compute_interval_metrics


class MonitorInterval:
    """Bookkeeping for one monitor interval."""

    __slots__ = (
        "mi_id",
        "rate_bps",
        "start",
        "duration_s",
        "closed",
        "n_sent",
        "bytes_sent",
        "n_acked",
        "n_lost",
        "bytes_acked",
        "send_times",
        "rtts",
        "utility",
        "metrics",
        "tag",
    )

    def __init__(self, mi_id: int, rate_bps: float, start: float, duration_s: float) -> None:
        self.mi_id = mi_id
        self.rate_bps = rate_bps
        self.start = start
        self.duration_s = duration_s
        self.closed = False  # no more sends attributed to this MI
        self.n_sent = 0
        self.bytes_sent = 0
        self.n_acked = 0
        self.n_lost = 0
        self.bytes_acked = 0
        self.send_times: list[float] = []
        self.rtts: list[float] = []
        self.utility: float | None = None
        self.metrics: IntervalMetrics | None = None
        self.tag: str | None = None  # rate-control annotation (e.g. "probe-hi")

    # ------------------------------------------------------------------
    def record_send(self, nbytes: int = 0) -> None:
        self.n_sent += 1
        self.bytes_sent += nbytes

    def record_ack(self, send_time: float, rtt_s: float, nbytes: int) -> None:
        self.n_acked += 1
        self.bytes_acked += nbytes
        self.send_times.append(send_time)
        self.rtts.append(rtt_s)

    def record_loss(self) -> None:
        self.n_lost += 1

    def is_complete(self) -> bool:
        """All packets accounted for and the sending window has closed."""
        return self.closed and (self.n_acked + self.n_lost) >= self.n_sent

    def actual_rate_bps(self) -> float:
        """Achieved sending rate (what PCC's utility actually monitors)."""
        return self.bytes_sent * 8.0 / self.duration_s

    def app_limited(self, threshold: float = 0.7) -> bool:
        """True when the application supplied too little data for the MI's
        planned rate — such intervals must not drive rate decisions."""
        return self.actual_rate_bps() < threshold * self.rate_bps

    def compute_metrics(self) -> IntervalMetrics:
        """Finalize the MI into :class:`IntervalMetrics` (cached).

        The utility's rate term uses the planned MI rate: probe intervals
        must keep their exact +/-epsilon contrast for gradient votes.
        Intervals where the achieved rate diverged from the plan
        (application-limited) are filtered out upstream via
        :meth:`app_limited` instead of being rescaled here.
        """
        if self.metrics is None:
            self.metrics = compute_interval_metrics(
                duration_s=self.duration_s,
                rate_mbps=self.rate_bps / 1e6,
                bytes_acked=self.bytes_acked,
                n_sent=self.n_sent,
                n_lost=self.n_lost,
                send_times=self.send_times,
                rtts=self.rtts,
            )
        return self.metrics
