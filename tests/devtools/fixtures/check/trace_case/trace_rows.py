"""Declared rows: a good one, a short one, a conditional and an imported shape."""

from repro.core.tracepoint import tracepoint
from trace_shapes import FIX_IMPORTED

FIX_ENQUEUE = tracepoint("fix.enqueue", "node", "seq", "backlog_bytes")
FIX_LOST = tracepoint("fix.lost", "node", "reason", "seq")
FIX_LOST_TAIL = tracepoint("fix.lost", "node", "reason", "seq", "backlog_bytes")
FIX_ACCEPT = tracepoint("fix.accept", "seq", "rtt_s")
FIX_REJECT = tracepoint("fix.reject", "seq", "rtt_s")


def enqueue(tracer, now_s, packet, backlog_bytes):
    tracer.record((FIX_ENQUEUE, now_s, packet.flow_id, "hop", "a", packet.seq, backlog_bytes))


def enqueue_short(tracer, now_s, packet):
    tracer.record((FIX_ENQUEUE, now_s, packet.flow_id, "hop", "a", packet.seq))  # no backlog


def lost(tracer, now_s, packet, backlog_bytes):
    tracer.record((FIX_LOST, now_s, packet.flow_id, "hop", "a", "wire", packet.seq))
    tracer.record(
        (FIX_LOST_TAIL, now_s, packet.flow_id, "hop", "a", "tail", packet.seq, backlog_bytes)
    )


def verdict(sim, ok, seq, rtt_s):
    sim.tracer.record((FIX_ACCEPT if ok else FIX_REJECT, sim.now, 1, None, seq, rtt_s))


def imported(tracer, now_s, seq, rtt_s):
    tracer.record((FIX_IMPORTED, now_s, 1, None, seq, rtt_s))
