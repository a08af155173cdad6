"""Helper-form sites: the declared name first, then exactly its values."""

from repro.core.tracepoint import tracepoint

FIX_CWND = tracepoint("fix.cwnd", "cwnd", "reason")


class Sender:
    def trace(self, shape, *values):
        self.tracer.record((shape, self.now, self.flow_id, None, *values))

    def on_loss(self):
        self.trace(FIX_CWND, self.cwnd, "loss")

    def on_timeout(self):
        self.trace(FIX_CWND, self.cwnd)  # no reason
