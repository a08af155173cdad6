"""Positive fixtures: payload fields named like the event envelope."""

from repro.core.tracepoint import tracepoint

FIX_STAMP = tracepoint("fix.stamp", "t")  # `t` is the envelope timestamp
FIX_ROUTE = tracepoint("fix.route", "flow", "hops")  # `flow` declared as payload
FIX_ATTR = tracepoint("fix.attr", "seq")


def attributed(tracer, now_s):
    tracer.record((FIX_ATTR, now_s, 1, "bottleneck", 3))  # fine: attribution slots
