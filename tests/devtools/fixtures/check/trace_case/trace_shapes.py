"""A tracepoint declared in one module and recorded from another."""

from repro.core.tracepoint import tracepoint

FIX_IMPORTED = tracepoint("fix.imported", "seq", "rtt_s")
