"""Trace fingerprinting for the determinism regression gate.

Two runs of the simulator with the same seed must be *bit-identical*:
same ACK times, same RTT samples, same loss times, same delivered byte
counts.  These helpers reduce a run's :class:`~repro.sim.trace.FlowStats`
records to a digest so tests can assert trace-level equality without
storing full traces.

Float values are fed to the hash via ``float.hex()`` — exact
representation, no rounding — so the gate catches even one-ULP drift.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..sim.trace import FlowStats


def _feed_floats(hasher, values: Iterable[float]) -> None:
    for value in values:
        hasher.update(float(value).hex().encode())
        hasher.update(b";")


def trace_digest(stats: FlowStats) -> str:
    """Hex digest of one flow's full measurement record."""
    hasher = hashlib.sha256()
    hasher.update(f"flow:{stats.flow_id}".encode())
    hasher.update(
        f"|sent:{stats.packets_sent}|delivered:{stats.delivered_bytes}"
        f"|acked:{stats.total_acked_bytes}".encode()
    )
    for label, series in (
        ("ack_times", stats.ack_times),
        ("rtts", stats.rtts),
        ("loss_times", stats.loss_times),
    ):
        hasher.update(f"|{label}:".encode())
        _feed_floats(hasher, series)
    # Each ACK's bytes, as the difference of consecutive running totals.
    hasher.update(b"|acked_bytes:")
    previous = 0
    for total in stats.acked_total:
        hasher.update(f"{total - previous};".encode())
        previous = total
    return hasher.hexdigest()


def stats_digest(stats_list: Iterable[FlowStats]) -> str:
    """Hex digest of a whole run (order-sensitive across flows)."""
    hasher = hashlib.sha256()
    for stats in stats_list:
        hasher.update(trace_digest(stats).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()
