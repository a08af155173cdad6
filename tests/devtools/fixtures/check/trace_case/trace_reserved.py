"""Positive fixtures: payload fields named like the event envelope."""


def stamp(tracer, now_s):
    tracer.emit("fix.stamp", now_s, t=now_s)  # `t` is the envelope timestamp


def _who(flow_id):
    return {"flow": flow_id, "hops": 2}


def route(tracer, now_s, flow_id):
    tracer.emit("fix.route", now_s, **_who(flow_id))  # `flow` smuggled in as payload


def attributed(tracer, now_s):
    tracer.emit("fix.attr", now_s, flow=1, link="bottleneck", seq=3)  # fine
