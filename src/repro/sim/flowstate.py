"""Vectorized per-flow burst state for hybrid fast-forward.

The paced-burst path (:meth:`repro.protocols.base.RateSender._burst_tick`)
sends up to ``Fidelity.burst_packets`` packets in one engine dispatch.
The per-packet reference path walks each packet through
``Flow.transmit_ff`` -> ``Link.send_ff`` -> ``FlowReceiver.receive_ff``
— three Python calls and two packet allocations per packet.  For a
burst on healthy static links all of that is closed-form arithmetic:

* the transmitter-claim recurrence ``busy_i = max(busy_{i-1}, t_i) + tx``
  unrolls to ``busy_i = (i+1)*tx + cummax(t_j - j*tx, busy_0)``,
* delivery times are ``busy_i + delay`` (strictly increasing, so the
  FIFO guard reduces to one boundary check against the link's last
  delivery), and
* the ACK leg is the same recurrence on the reverse link.

This module computes those arrays with numpy and applies the aggregate
state updates (link counters, flow stats, ACK events) in bulk.  The
sequential per-packet path remains the **reference implementation**:
:func:`transmit_burst_ff` returns ``None`` whenever anything needs a
per-packet decision — loss or noise draws, an outage, a tail-drop risk
inside the burst, a fast-forward barrier, a tracer watching, numpy
missing, or a burst too short to amortize array overhead — and the
caller falls back to the reference loop.

The closed-form arithmetic can differ from the sequential recurrence in
the lowest float bits (``(i+1)*tx`` vs repeated addition, and numpy's
pairwise reductions), which is why ``Fidelity.use_numpy`` is part of
the harness cache key.
"""

from __future__ import annotations

import heapq as _heapq
from functools import cache

from .packet import ACK_BYTES, Packet


@cache
def _numpy():
    """numpy, imported by the first burst long enough to use it.

    The import costs ~0.14 s and ~13 MiB in every process, and the
    default configurations never get here (see MIN_NUMPY_BURST).
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - image always ships numpy
        return None
    return numpy


MIN_NUMPY_BURST = 24
"""Bursts shorter than this stay on the per-packet reference path.

Each numpy call carries ~1 microsecond of dispatch overhead; below
roughly this many packets the vectorized plan costs more than the
per-packet loop it replaces (measured on the ``repro bench`` scenario:
at the default 16-packet cap the numpy path is ~10% *slower*, at 64
packets ~6% faster).  The default :data:`~repro.sim.fidelity.HYBRID`
configuration therefore never reaches numpy; homogeneous sweeps opt in
by raising ``Fidelity.burst_packets``.
"""


def numpy_available() -> bool:
    return _numpy() is not None


def _link_is_plain(link) -> bool:
    """No per-packet randomness or state machine on this link."""
    return (
        link.loss_model is None
        and link.noise is None
        and link.loss_rate == 0.0  # repro: noqa[no-float-eq] — gate, not math
        and not link._down
        and link.ff_barrier_s == float("inf")
    )


def _claim_times(np, times, busy0: float, tx: float):
    """Vectorized transmitter-claim recurrence.

    Returns ``busy`` where ``busy[i]`` is the link's ``_busy_until``
    after serializing the ``i``-th packet offered at ``times[i]``:
    ``busy[i] = max(busy[i-1], times[i]) + tx`` with ``busy[-1]=busy0``.
    """
    n = len(times)
    steps = np.arange(n, dtype=np.float64)
    offsets = np.maximum.accumulate(np.maximum(times - steps * tx, busy0))
    return offsets + (steps + 1.0) * tx


def transmit_burst_ff(flow, times, size_bytes: int):
    """Send a whole paced burst analytically; returns the seqs or None.

    ``times`` are the virtual send times (monotone non-decreasing, all at
    or after ``flow.sim.now``) the caller planned with the same jitter
    draws the reference loop would have used.  On success every packet
    is delivered, its ACK is scheduled, and all link/flow counters match
    what ``len(times)`` calls of ``Flow.transmit_ff`` would have left
    behind (up to float low bits, see module docstring).

    ``None`` means "not eligible": the caller must fall back to the
    per-packet reference path.  No state is mutated in that case.
    """
    n = len(times)
    if n < MIN_NUMPY_BURST:
        return None
    sim = flow.sim
    fwd = flow.ff_fwd
    rev = flow.ff_rev
    if (
        sim.tracer is not None
        or not _link_is_plain(fwd)
        or not _link_is_plain(rev)
    ):
        return None
    np = _numpy()
    if np is None:
        return None

    t = np.asarray(times, dtype=np.float64)
    tx = size_bytes * 8.0 / fwd.bandwidth_bps
    busy = _claim_times(np, t, fwd._busy_until, tx)
    # Tail-drop risk anywhere in the burst -> per-packet path (it records
    # the drop and the loss detection that follows).
    occupancy = np.maximum(0.0, np.concatenate(([fwd._busy_until], busy[:-1])) - t) * (
        fwd.bandwidth_bps / 8.0
    ) + size_bytes
    if (occupancy > fwd.buffer_bytes + 1e-6).any():
        return None
    deliver = busy + fwd.delay_s
    if deliver[0] <= fwd._last_delivery:
        # FIFO epsilon chain is inherently sequential; punt (rare).
        return None

    ack_tx = ACK_BYTES * 8.0 / rev.bandwidth_bps
    ack_busy = _claim_times(np, deliver, rev._busy_until, ack_tx)
    ack_occ = np.maximum(
        0.0, np.concatenate(([rev._busy_until], ack_busy[:-1])) - deliver
    ) * (rev.bandwidth_bps / 8.0) + ACK_BYTES
    if (ack_occ > rev.buffer_bytes + 1e-6).any():
        return None
    ack_at = ack_busy + rev.delay_s
    if ack_at[0] <= rev._last_delivery:
        return None

    # ---- Commit: bulk equivalents of the per-packet bookkeeping ----
    fwd._busy_until = float(busy[-1])
    fwd._last_delivery = float(deliver[-1])
    fstats = fwd.stats
    fstats.offered += n
    fstats.delivered += n
    peak = float(occupancy.max())
    if peak > fstats.max_backlog_bytes:
        fstats.max_backlog_bytes = peak
    rev._busy_until = float(ack_busy[-1])
    rev._last_delivery = float(ack_at[-1])
    rstats = rev.stats
    rstats.offered += n
    rstats.delivered += n
    peak = float(ack_occ.max())
    if peak > rstats.max_backlog_bytes:
        rstats.max_backlog_bytes = peak

    stats = flow.stats
    stats.packets_sent += n
    stats.delivered_bytes += n * size_bytes
    if stats.first_delivery is None:
        stats.first_delivery = float(deliver[0])
    stats.last_delivery = float(deliver[-1])

    first_seq = flow._next_seq + 1
    flow._next_seq += n
    receiver = flow.receiver
    handle = flow.sender.handle_ack_packet
    heap = sim._heap
    flow_id = flow.flow_id
    seq = first_seq
    ack_seq = receiver._ack_seq
    for send_t, recv_t, ack_t in zip(t.tolist(), deliver.tolist(), ack_at.tolist()):
        ack_seq += 1
        ack = Packet(
            flow_id=flow_id,
            seq=ack_seq,
            size_bytes=ACK_BYTES,
            sent_time=recv_t,
            is_ack=True,
            data_seq=seq,
            data_sent_time=send_t,
            data_recv_time=recv_t,
        )
        sim._seq += 1
        _heapq.heappush(heap, (ack_t, sim._seq, handle, (ack,), None))
        seq += 1
    receiver._ack_seq = ack_seq
    # One virtual event per collapsed data delivery, exactly like the
    # reference receive_ff path.
    sim.events_virtual += n
    return list(range(first_seq, first_seq + n))
