"""Tracepoints and trace sinks (the ``repro.obs`` tracing half).

The simulator and every sender can narrate what they are doing —
per-packet link events, monitor-interval lifecycles with their utility
components, rate-control decisions with reasons, RTT-filter verdicts —
as a stream of typed **trace events**.  The design constraint is the
same as the engine's: the disabled path must cost nothing measurable.
Every emission site in hot code is guarded by a single
``if tracer is not None`` attribute check (``tests/test_perf_proxies.py``
pins zero ``record`` and ``emit`` calls in an untraced run), and no
tracer object exists unless one was installed.

Determinism: events carry *simulated* time only and are emitted in
event-execution order, which is a pure function of the run's seed.  The
JSONL encoding is canonical (sorted keys, fixed separators, Python's
shortest-repr floats), so the byte stream — and therefore
:func:`trace_digest` — is identical across hosts and across
``REPRO_JOBS`` settings (each run traces inside its own process).

There is one storage format and one encoder.  Events are the flat rows
of :mod:`repro.core.tracepoint`: every site in the package records a
row of a declared tracepoint with ``record(row)``; the by-name ``emit``,
which builds the same row, is the door for callers outside it.  Each (shape, value types) pair compiles a
formatter with the keys already sorted and escaped and the type check
built in, and whatever it cannot reproduce byte for byte (non-finite
floats, bool and nested values, ``int``/``float`` subclasses,
non-string or colliding keys) goes through ``json.JSONEncoder``.  Text
is produced, hashed and written a few thousand lines at a time.

Sinks (each implements ``record`` and inherits ``emit`` from
:class:`TraceSink`):

* :class:`CollectingTracer` — keeps the rows in memory, uncopied;
  its ``events`` view wraps them as :class:`TraceEvent` on first read.
* :class:`JsonlTraceSink` — streams canonical JSONL to a file.
* :class:`RingBufferTracer` — keeps only the last *N* events; the
  supervision layer (:mod:`repro.harness.supervise`) attaches its
  snapshot to failed/timed-out :class:`~repro.harness.supervise.TrialOutcome`
  records ("what happened right before the crash").
* :class:`TeeTracer` — fan-out to several sinks.

A process-global tracer can be installed with :func:`install_tracer` /
:func:`tracing`; ``run_flows`` and friends pick it up when no explicit
``tracer=`` argument is given.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from contextlib import contextmanager
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from types import NoneType
from typing import IO, Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

from ..core.tracepoint import RECORD, Shape, tracepoint

_CHUNK_LINES = 4096
_generic_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_new_event = tuple.__new__


@runtime_checkable
class Tracer(Protocol):
    """Anything that can swallow trace events.

    ``emit`` takes the event kind, the *simulated* timestamp, the
    optional flow/link attribution, and free-form payload fields.  This
    by-name door is all a caller-supplied tracer needs; the sinks below
    are :class:`TraceSink` subclasses, which also take prebuilt rows.
    """

    def emit(
        self,
        kind: str,
        time_s: float,
        *,
        flow: int | None = None,
        link: str | None = None,
        **fields: Any,
    ) -> None: ...


def _event_dict(row: tuple) -> dict[str, Any]:
    """Canonical JSON-safe form of an event row (``t``/``kind`` first,
    payload merged; the envelope wins over a payload field of the same name)."""
    record: dict[str, Any] = {"t": row[1], "kind": row[0].kind}
    if row[2] is not None:
        record["flow"] = row[2]
    if row[3] is not None:
        record["link"] = row[3]
    for key, value in zip(row[0].keys[3:], row[4:]):
        record.setdefault(key, value)
    return record


class TraceEvent(tuple):
    """One trace event: what happened, when, and to whom.

    The recorded row itself — ``(shape, time_s, flow, link, *payload
    values)`` — under a class with named accessors, so a recorded run
    holds one tuple per event instead of an object plus a kwargs dict;
    ``fields`` is rebuilt on access.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        time_s: float,
        flow: int | None = None,
        link: str | None = None,
        fields: dict[str, Any] | None = None,
    ) -> "TraceEvent":
        fields = fields or {}
        return _new_event(cls, (tracepoint(kind, *fields), time_s, flow, link, *fields.values()))

    def __reduce__(self) -> tuple:
        return TraceEvent, (self.kind, self.time_s, self.flow, self.link, self.fields)

    kind = property(lambda self: self[0].kind)
    time_s = property(itemgetter(1))
    flow = property(itemgetter(2))
    link = property(itemgetter(3))

    @property
    def fields(self) -> dict[str, Any]:
        return dict(zip(self[0].keys[3:], self[4:]))

    to_dict = _event_dict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = f" flow={self.flow}" if self.flow is not None else ""
        who += f" link={self.link}" if self.link is not None else ""
        return f"<TraceEvent t={self.time_s:.6f} {self.kind}{who}>"


# ----------------------------------------------------------------------
# The canonical encoder
# ----------------------------------------------------------------------
def _row(event: tuple | dict) -> tuple:
    """``event`` as a row: a row (a :class:`TraceEvent` is one) is
    returned as is, a replayed dict gets a ``RECORD`` layout."""
    if isinstance(event, tuple):
        return event
    try:
        shape = tracepoint(RECORD, *event)
    except TypeError:  # non-string keys: a one-off shape, generic encoder
        shape = Shape(RECORD, tuple(event))
    return (shape, *event.values())


def _generic_line(row: tuple) -> str:
    shape = row[0]
    record = dict(zip(shape.keys, row[1:])) if shape.kind is RECORD else _event_dict(row)
    return _generic_encode(record) + "\n"


def _compile(shape: Shape, types: tuple) -> Callable[[tuple], str]:
    """Line formatter for the rows of ``shape`` whose values have ``types``.

    Emits what the C encoder emits for exact ``int``/``float``/``str``
    and ``None`` (``repr``, ``encode_basestring_ascii`` and ``null``)
    into a template whose keys are already sorted and escaped.  The
    formatter checks the types it was compiled for and hands any other
    row back to :func:`_select`; a row with a non-finite float takes the
    generic encoder, as does the whole signature when a key or a type is
    anything else.
    """
    slots: list[tuple[Any, str, str | None]] = []  # key, template slot, argument
    floats = []
    guards = []
    is_event = shape.kind is not RECORD
    if is_event:
        slots.append(("kind", _quote(shape.kind).replace("%", "%%"), None))
    for index, key in enumerate(shape.keys, start=1):
        kind_of = types[index]
        if kind_of is NoneType:
            guards.append(f"r[{index}] is None")
            if not (is_event and index in (2, 3)):  # no flow / link: no key
                slots.append((key, "null", None))
            continue
        guards.append(f"type(r[{index}]) is {kind_of.__name__}")
        if kind_of is str:
            slots.append((key, "%s", f"q(r[{index}])"))
        elif kind_of is int or kind_of is float:
            slots.append((key, "%r", f"r[{index}]"))
            if kind_of is float:
                floats.append(f"r[{index}]")
        else:
            return _generic_line
    keys = [key for key, _, _ in slots]
    if len(set(keys)) != len(keys) or not all(isinstance(key, str) for key in keys):
        return _generic_line
    slots.sort()
    template = "{%s}\n" % ",".join(
        _quote(key).replace("%", "%%") + ":" + slot for key, slot, _ in slots
    )
    body = [f"return {template!r} % ({''.join(arg + ',' for _, _, arg in slots if arg)})"]
    if floats:  # nan and +-inf are the only floats x with x * 0.0 != 0.0
        body = [f"if ({' + '.join(floats)}) * 0.0 == 0.0:", "    " + body[0], "return g(r)"]
    if guards:
        body = [f"if {' and '.join(guards)}:", *["    " + line for line in body], "return s(r)"]
    namespace: dict[str, Any] = {}
    exec("def line(r):\n" + "".join(f"    {line}\n" for line in body),
         _FORMATTER_GLOBALS, namespace)
    return namespace["line"]


def _select(row: tuple) -> str:
    """Encode ``row`` with the formatter for its exact types, and leave
    that formatter in ``shape.line``: rows come here until one compiles
    and whenever their types change, and skip this frame otherwise."""
    shape = row[0]
    types = tuple(map(type, row))
    formatter = shape.formatters.get(types)
    if formatter is None:
        formatter = shape.formatters[types] = _compile(shape, types)
    if formatter is not _generic_line:  # it checks nothing: never the default
        shape.line = formatter
    return formatter(row)


_FORMATTER_GLOBALS = {"q": _quote, "g": _generic_line, "s": _select}


def _chunks(rows: Iterable[tuple]) -> Iterator[str]:
    """Canonical JSONL of ``rows``, ``_CHUNK_LINES`` lines at a time."""
    rows = iter(rows)
    while chunk := "".join(
        [(row[0].line or _select)(row) for row in islice(rows, _CHUNK_LINES)]
    ):
        yield chunk


def _digest(chunks: Iterable[str], handle: IO[str] | None = None) -> str:
    """sha256 of the chunk stream, copying it to ``handle`` on the way."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk.encode())
        if handle is not None:
            handle.write(chunk)
    return hasher.hexdigest()


def event_to_json(record: tuple | dict[str, Any]) -> str:
    """Canonical single-line JSON encoding of one event (row or dict).

    Sorted keys and fixed separators: the byte stream depends only on
    the event contents, never on insertion order or platform.
    """
    return _select(_row(record))[:-1]


def events_to_jsonl(events: Iterable[tuple | dict]) -> str:
    """Events as canonical JSONL text (one event per line)."""
    return "".join(_chunks(map(_row, events)))


def trace_digest(events: Iterable[tuple | dict]) -> str:
    """sha256 over the canonical JSONL encoding of ``events``."""
    return _digest(_chunks(map(_row, events)))


def write_jsonl(events: Iterable[tuple | dict], path: str | Path) -> str:
    """Stream ``events`` to ``path`` as canonical JSONL; returns their digest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        return _digest(_chunks(map(_row, events)), handle)


def iter_jsonl(path: str | Path) -> Iterator[dict]:
    """The event dicts of a JSONL trace file, parsed one line at a time."""
    with Path(path).open() as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL trace file back into event dicts."""
    return list(iter_jsonl(path))


# ----------------------------------------------------------------------
# Filtering (rows, or the event dicts ``repro trace`` reads from a file)
# ----------------------------------------------------------------------
def kind_matches(kind: str, pattern: str) -> bool:
    """True when ``pattern`` names ``kind`` or one of its namespaces.

    ``"link"`` matches ``link.enqueue``/``link.drop``/...;
    ``"link.drop"`` matches only itself.
    """
    return kind == pattern or kind.startswith(pattern + ".")


def event_filter(
    *,
    flows: Iterable[int] | None = None,
    links: Iterable[str] | None = None,
    kinds: Iterable[str] | None = None,
) -> Callable[[tuple | dict], bool]:
    """Predicate: does a row (or event dict) match every given filter
    (None = no constraint)?"""
    flow_set = None if flows is None else set(flows)
    link_set = None if links is None else set(links)
    kind_list = None if kinds is None else list(kinds)

    def keep(event: tuple | dict) -> bool:
        if isinstance(event, tuple):
            kind, flow, link = event[0].kind, event[2], event[3]
        else:
            kind, flow, link = event.get("kind", ""), event.get("flow"), event.get("link")
        if flow_set is not None and flow not in flow_set:
            return False
        if link_set is not None and link not in link_set:
            return False
        return kind_list is None or any(kind_matches(kind, pattern) for pattern in kind_list)

    return keep


def filter_events(
    events: Iterable[tuple | dict],
    *,
    flows: Iterable[int] | None = None,
    links: Iterable[str] | None = None,
    kinds: Iterable[str] | None = None,
) -> list:
    """Rows (or event dicts) matching every given filter (None = no constraint)."""
    return list(filter(event_filter(flows=flows, links=links, kinds=kinds), events))


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TraceSink:
    """Base of every sink: a subclass stores rows, ``emit`` is spelled once.

    :meth:`record` takes one event as the row ``(tracepoint(kind,
    *field_names), time_s, flow, link, *values)``, which the package's
    sites build themselves and :meth:`emit` builds from keywords.
    """

    def record(self, row: tuple) -> None:
        raise NotImplementedError

    def emit(
        self,
        kind: str,
        time_s: float,
        *,
        flow: int | None = None,
        link: str | None = None,
        **fields: Any,
    ) -> None:
        self.record((tracepoint(kind, *fields), time_s, flow, link, *fields.values()))


class CollectingTracer(TraceSink):
    """Keeps every event in memory (tests, in-process analysis).

    :attr:`rows` is the list of the very rows the sites recorded, and
    what :meth:`digest`, :meth:`to_jsonl` and ``len`` read.  :attr:`events`
    is the same list once its rows are wrapped as :class:`TraceEvent`:
    the first read wraps what is not wrapped yet, in place, so a second
    read costs nothing.  A pickled tracer carries its rows as events.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        self._wrapped = 0  # rows[:_wrapped] are TraceEvents

    def record(self, row: tuple) -> None:
        self._rows.append(row)

    @property
    def rows(self) -> list[tuple]:
        return self._rows

    @property
    def events(self) -> list[TraceEvent]:
        rows = self._rows
        # One row at a time, so each row is freed as its event replaces
        # it: a whole-list swap would hold the trace twice at its peak.
        for index in range(self._wrapped, len(rows)):
            rows[index] = _new_event(TraceEvent, rows[index])
        self._wrapped = len(rows)
        return rows

    def __getstate__(self) -> dict:
        return {
            "_rows": [_new_event(TraceEvent, row) for row in self._rows],
            "_wrapped": len(self._rows),
        }

    def __len__(self) -> int:
        return len(self._rows)

    def to_dicts(self) -> list[dict]:
        return list(map(_event_dict, self._rows))

    def to_jsonl(self) -> str:
        return "".join(_chunks(self._rows))

    def digest(self) -> str:
        return _digest(_chunks(self._rows))


class RingBufferTracer(TraceSink):
    """Keeps only the last ``capacity`` events — flight recorder mode.

    Cheap enough to leave armed around a whole supervised trial: the
    deque discards old rows in O(1) (they are only wrapped as
    :class:`TraceEvent` when read), and :meth:`snapshot` renders
    the surviving tail as JSON-safe dicts for a
    :class:`~repro.harness.supervise.TrialOutcome` failure record.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[tuple] = deque(maxlen=capacity)

    def record(self, row: tuple) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(row)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[TraceEvent]:
        return [_new_event(TraceEvent, row) for row in self._events]

    def snapshot(self) -> list[dict]:
        """The retained tail as event dicts, oldest first."""
        return [_event_dict(row) for row in self._events]


class JsonlTraceSink(TraceSink):
    """Streams events to ``path`` as canonical JSONL.

    Usable as a context manager; :attr:`count` tracks emitted events.
    The running :attr:`digest` matches :func:`trace_digest` over the
    same events, so producers and replayers can compare byte-identity
    without re-reading the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w")
        self._hasher = hashlib.sha256()
        self.count = 0

    def record(self, row: tuple) -> None:
        if self._handle is None:
            raise ValueError("trace sink is closed")
        line = (row[0].line or _select)(row)
        self._handle.write(line)
        self._hasher.update(line.encode())
        self.count += 1

    def digest(self) -> str:
        return self._hasher.hexdigest()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _ByName:
    """Gives an emit-only :class:`Tracer` the row door."""

    def __init__(self, tracer: Tracer) -> None:
        self.emit = tracer.emit  # by-name callers go straight through

    def record(self, row: tuple) -> None:
        shape = row[0]
        self.emit(
            shape.kind, row[1], flow=row[2], link=row[3], **dict(zip(shape.keys[3:], row[4:]))
        )


def as_sink(tracer: Tracer | None) -> TraceSink | None:
    """What a run hands its simulator: ``tracer`` (default: the
    process-global one, else ``None``) as something with ``record`` — a
    sink passes through, an emit-only object gets the by-name adapter."""
    if tracer is None:
        tracer = _ACTIVE_TRACER
    if tracer is None or hasattr(tracer, "record"):
        return tracer
    return _ByName(tracer)


class TeeTracer(TraceSink):
    """Fans every event out to several tracers."""

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers = tuple(map(as_sink, tracers))

    def record(self, row: tuple) -> None:
        for tracer in self.tracers:
            tracer.record(row)


# ----------------------------------------------------------------------
# Process-global tracer (picked up by run_* when no tracer= is passed)
# ----------------------------------------------------------------------
_ACTIVE_TRACER: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The process-global tracer, or None (the zero-overhead default)."""
    return _ACTIVE_TRACER


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` globally; returns the previous one."""
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`install_tracer` (restores the previous tracer)."""
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
