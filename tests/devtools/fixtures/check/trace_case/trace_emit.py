"""Positive fixture: an event emitted by name instead of declared."""


def sample(sim, rtt_s):
    sim.tracer.emit("fix.sample", sim.now, rtt_s=rtt_s)
