"""Trace row layouts: what a tracepoint declares and a sink stores.

Every trace event in the package declares its layout once at module
level — ``ENQUEUE = tracepoint("link.enqueue", "node", "seq", ...)`` —
and its sites hand ``tracer.record((ENQUEUE, now, flow, link, node,
seq, ...))`` to whatever sink is attached (``repro check`` reads the
trace schema from these declarations).  A leaf module (the ``core/rng.py``
precedent): ``sim`` and ``protocols`` may not import ``repro.obs``,
where the sinks and the encoder live.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

RECORD = object()  # the "kind" of shapes made from replayed dicts


class Shape:
    """Interned layout of a row ``(shape, value, ...)``.

    ``keys[i]`` names ``row[i + 1]``.  An event row is ``(shape, time_s,
    flow, link, *payload)`` with its kind held here; a row made from a
    replayed dict has ``kind is RECORD`` and carries ``"kind"`` as an
    ordinary key.  ``formatters`` maps the exact types of a row
    (``tuple(map(type, row))``) to its line formatter and ``line`` is
    the one selected last (both belong to the encoder in
    :mod:`repro.obs.trace`).
    """

    __slots__ = ("kind", "keys", "formatters", "line")

    def __init__(self, kind: Any, keys: tuple) -> None:
        self.kind = kind
        self.keys = keys
        self.formatters: dict[tuple, Callable[[tuple], str]] = {}
        self.line: Callable[[tuple], str] | None = None


@lru_cache(maxsize=4096)
def tracepoint(kind: Any, *names: Any) -> Shape:
    """The shape of ``kind`` events whose payload fields are ``names``."""
    # Only all-string layouts are interned: keys that are equal across
    # types (1, True, 1.0) would share an entry and encode as whichever
    # came first.  A raise is not cached.
    if not all(isinstance(name, str) for name in names):
        raise TypeError(f"trace field names must be strings, got {names!r}")
    if kind is not RECORD and not isinstance(kind, str):
        raise TypeError(f"trace event kind must be a string, got {kind!r}")
    return Shape(kind, names if kind is RECORD else ("t", "flow", "link") + names)
