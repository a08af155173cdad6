"""Positive fixtures: declarations of one event that no field tells apart."""

from repro.core.tracepoint import tracepoint

FIX_SAMPLE_RTT = tracepoint("fix.sample", "rtt_s")
FIX_SAMPLE_LOSS = tracepoint("fix.sample", "loss_pkts")  # disagrees, no discriminator

FIX_MIXED_UTIL = tracepoint("fix.mixed", "reason", "util")
# Each carries a discriminator, but not the same one.
FIX_MIXED_RTT = tracepoint("fix.mixed", "status", "rtt_s")
