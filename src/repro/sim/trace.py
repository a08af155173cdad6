"""Per-flow measurement collection.

A :class:`FlowStats` instance is attached to every flow and records ACK
arrivals (with RTT samples), deliveries, and losses.  All of the paper's
transport-level metrics — throughput over a window, Jain-index inputs,
95th-percentile RTT, inflation ratio — are derived from this record by
:mod:`repro.analysis`.
"""

from __future__ import annotations

import bisect
from array import array


class FlowStats:
    """Measurement record for one flow.

    The ACK record is three parallel series kept in arrival order
    (simulated time is monotone): ``ack_times``, ``rtts`` and
    ``acked_total``, the running acked-byte total after each ACK (so ACK
    ``i`` carried ``acked_total[i] - acked_total[i - 1]`` bytes, and
    ``acked_total[-1] == total_acked_bytes``).  A windowed query is two
    bisects: a window's bytes are a difference of two totals, its RTT
    samples one slice.  The series are ``array('d')`` / ``array('q')``
    rather than lists: a long run records millions of samples, and packed
    arrays cut per-sample memory ~4x (8 bytes vs a pointer plus a boxed
    float) while keeping append and bisect behaviour identical.
    """

    def __init__(self, flow_id: int = 0):
        self.flow_id = flow_id
        self.start_time: float = 0.0
        self.end_time: float | None = None
        # ACK-side record (sender's view).
        self.ack_times: array = array("d")
        self.acked_total: array = array("q")
        self.rtts: array = array("d")
        self.total_acked_bytes: int = 0
        # Receiver-side record.
        self.delivered_bytes: int = 0
        self.first_delivery: float | None = None
        self.last_delivery: float | None = None
        # Loss record.
        self.loss_times: array = array("d")
        self.packets_sent: int = 0

    # ------------------------------------------------------------------
    # Recording (called by flow machinery)
    # ------------------------------------------------------------------
    def record_ack(self, now: float, nbytes: int, rtt_s: float) -> None:
        self.ack_times.append(now)
        self.total_acked_bytes += nbytes
        self.acked_total.append(self.total_acked_bytes)
        self.rtts.append(rtt_s)

    def record_delivery(self, now: float, nbytes: int) -> None:
        self.delivered_bytes += nbytes
        if self.first_delivery is None:
            self.first_delivery = now
        self.last_delivery = now

    def record_loss(self, now: float) -> None:
        self.loss_times.append(now)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _acked_between(self, lo: int, hi: int) -> int:
        """Bytes the ACKs ``lo`` to ``hi - 1`` carried."""
        if hi <= lo:
            return 0
        totals = self.acked_total
        return totals[hi - 1] - totals[lo - 1] if lo else totals[hi - 1]

    def throughput_bps(self, t0: float, t1: float) -> float:
        """Mean ACKed goodput over the window ``[t0, t1]`` in bits/s."""
        if t1 <= t0:
            raise ValueError("empty measurement window")
        lo = bisect.bisect_left(self.ack_times, t0)
        hi = bisect.bisect_right(self.ack_times, t1)
        return self._acked_between(lo, hi) * 8.0 / (t1 - t0)

    def rtt_samples(self, t0: float = 0.0, t1: float = float("inf")) -> list[float]:
        """RTT samples whose ACKs arrived within ``[t0, t1]``."""
        lo = bisect.bisect_left(self.ack_times, t0)
        hi = bisect.bisect_right(self.ack_times, t1)
        return list(self.rtts[lo:hi])

    def sorted_rtts(self, t0: float = 0.0, t1: float = float("inf")) -> list[float]:
        """The RTT samples of ``[t0, t1]`` in ascending order."""
        lo = bisect.bisect_left(self.ack_times, t0)
        hi = bisect.bisect_right(self.ack_times, t1)
        return sorted(self.rtts[lo:hi])

    def rtt_percentile(
        self, percentile: float, t0: float = 0.0, t1: float = float("inf")
    ) -> float:
        """Percentile of RTT samples in a window (linear interpolation)."""
        return sorted_percentile(self.sorted_rtts(t0, t1), percentile)

    def min_rtt(self) -> float:
        if not self.rtts:
            raise ValueError("no RTT samples")
        return min(self.rtts)

    def loss_count(self, t0: float = 0.0, t1: float = float("inf")) -> int:
        lo = bisect.bisect_left(self.loss_times, t0)
        hi = bisect.bisect_right(self.loss_times, t1)
        return hi - lo

    def throughput_series(
        self, bin_s: float, t0: float, t1: float
    ) -> list[tuple[float, float]]:
        """(bin_center_time, Mbps) series of ACKed throughput."""
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        series: list[tuple[float, float]] = []
        t = t0
        while t < t1:
            end = min(t + bin_s, t1)
            lo = bisect.bisect_left(self.ack_times, t)
            # Half-open bins [t, end) so boundary ACKs are counted once;
            # the final bin includes its right edge.
            if end >= t1:
                hi = bisect.bisect_right(self.ack_times, end)
            else:
                hi = bisect.bisect_left(self.ack_times, end)
            total = self._acked_between(lo, hi)
            series.append((0.5 * (t + end), total * 8.0 / (end - t) / 1e6))
            t = end
        return series


def sorted_percentile(samples: list[float], percentile: float) -> float:
    """Percentile of ascending ``samples`` (linear interpolation)."""
    if not samples:
        raise ValueError("no RTT samples in window")
    if not 0 <= percentile <= 100:
        raise ValueError("percentile must be in [0, 100]")
    rank = percentile / 100.0 * (len(samples) - 1)
    lo = min(len(samples) - 1, int(rank))
    frac = rank - lo
    if frac <= 0.0 or lo + 1 >= len(samples):
        return samples[lo]
    return samples[lo] + frac * (samples[lo + 1] - samples[lo])
