"""Span recording from outside the program (the traced run's second source).

The benchmark wraps the *public* functions at each layer boundary with a
timing wrapper of its own: every call becomes a span (name, start, end,
parent, optional attributes) kept in memory and handed back when the
workload ends.  Nothing under ``src/`` knows about spans.

Functions are bound by name all over the package
(``adversary/objectives.py`` does ``from ..harness.runner import
run_flows``), so patching one module attribute would miss callers.
:func:`patch_function` therefore rebinds *every* loaded module attribute
that is the original function object; methods are patched on the class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable
from typing import Any

Attrs = Callable[[tuple, Any], "dict | None"]
"""``attrs(args, result)`` -> extra fields stored on a finished span."""


class SpanRecorder:
    """In-memory span log with parent tracking (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        A span is appended when the call *starts*, so ids are in start
        order and a parent always precedes its children.  A call that
        raises still closes its span (``attrs`` is skipped).
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": name,
                "start_s": 0.0,
                "end_s": 0.0,
            }
            spans.append(span)
            stack.append(span["id"])
            span["start_s"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_s"] = clock()
                stack.pop()
            if attrs is not None:
                extra = attrs(args, result)
                if extra:
                    span["attrs"] = extra
            return result

        return wrapper

    def patch_function(
        self, name: str, module: Any, attr: str, attrs: Attrs | None = None
    ) -> None:
        """Wrap ``module.attr`` wherever a loaded module holds it by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, attrs)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(holder, key, wrapped)

    def patch_method(
        self, name: str, cls: type, attr: str, attrs: Attrs | None = None
    ) -> None:
        """Wrap ``cls.attr`` in place (covers every caller of the method)."""
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], attrs))


def merge_counts(total: dict[str, float], part: dict[str, float]) -> None:
    """Add the counts in ``part`` into ``total`` (``max_*`` gauges take the maximum)."""
    for key, value in part.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # span attributes also carry flags such as "live"
        if key.rpartition(".")[2].startswith("max_"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def span_counts(spans: list[dict]) -> dict[str, int]:
    """Number of spans per name."""
    counts: dict[str, int] = {}
    for span in spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    return counts


def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time: duration minus what direct children cover.

    Spans nest strictly (one thread, call/return order), so a parent's
    children never overlap each other and their durations simply add.
    """
    own = [span["end_s"] - span["start_s"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end_s"] - span["start_s"]
    return own


def totals_by_name(spans: list[dict]) -> dict[str, dict[str, float]]:
    """``name -> {"calls", "busy_s", "self_s"}`` summed over all spans."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        row = totals.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span["end_s"] - span["start_s"]
        row["self_s"] += self_s
    return totals
