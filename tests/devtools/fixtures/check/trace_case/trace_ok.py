"""Negative fixtures: declarations told apart by a discriminator, and their sites."""

from repro.core.tracepoint import tracepoint

FIX_DROP = tracepoint("fix.drop", "reason", "seq")
FIX_DROP_TAIL = tracepoint("fix.drop", "reason", "seq", "backlog_bytes")
FIX_RATE = tracepoint("fix.rate", "rate_bps")
FIX_DECISION = tracepoint("fix.decision", "reason", "util")
FIX_DECISION_BOOT = tracepoint("fix.decision", "reason", "util", "delay_s")


def drop_tail(tracer, now_s, seq, backlog_bytes):
    tracer.record((FIX_DROP_TAIL, now_s, None, "hop", "tail", seq, backlog_bytes))


def drop_outage(tracer, now_s, seq):
    tracer.record((FIX_DROP, now_s, None, "hop", "outage", seq))


class Sender:
    def trace(self, shape, *values):
        self.tracer.record((shape, self.now, self.flow_id, None, *values))

    def rate_sample(self, rate_bps):
        self.trace(FIX_RATE, rate_bps)

    def hook(self, reason, util):
        # A reason known only at run time: the declaration still fixes the fields.
        self.trace(FIX_DECISION, reason, util)

    def boot(self):
        self.trace(FIX_DECISION_BOOT, "boot", 0.0, 0.0)
