"""Tracepoints and trace sinks (the ``repro.obs`` tracing half).

The simulator and every sender can narrate what they are doing —
per-packet link events, monitor-interval lifecycles with their utility
components, rate-control decisions with reasons, RTT-filter verdicts —
as a stream of typed **trace events**.  The design constraint is the
same as the engine's: the disabled path must cost nothing measurable.
Every emission site in hot code is guarded by a single
``if tracer is not None`` attribute check (``tests/test_perf_proxies.py``
pins zero ``emit`` calls in an untraced run), and no tracer object
exists unless one was installed.

Determinism: events carry *simulated* time only and are emitted in
event-execution order, which is a pure function of the run's seed.  The
JSONL encoding is canonical (sorted keys, fixed separators, Python's
shortest-repr floats), so the byte stream — and therefore
:func:`trace_digest` — is identical across hosts and across
``REPRO_JOBS`` settings (each run traces inside its own process).

There is one encoder.  Events are flat rows whose layout (kind +
payload names) is interned in a shape; each (shape, value types) pair
compiles a formatter with the keys already sorted and escaped, and
whatever it cannot reproduce byte for byte (non-finite floats,
bool/None/nested values, ``int``/``float`` subclasses, non-string or
colliding keys) goes through ``json.JSONEncoder``.  Text is produced,
hashed and written a few thousand lines at a time.

Sinks:

* :class:`CollectingTracer` — in-memory list of :class:`TraceEvent`.
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
from functools import lru_cache
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from types import NoneType
from typing import IO, Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

_RECORD = object()  # the "kind" of shapes made from replayed dicts
_CHUNK_LINES = 4096
_generic_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_new_event = tuple.__new__


@runtime_checkable
class Tracer(Protocol):
    """Anything that can swallow trace events.

    ``emit`` takes the event kind, the *simulated* timestamp, the
    optional flow/link attribution, and free-form payload fields.  The
    signature is flat (no event object) so hot emission sites allocate
    nothing beyond the kwargs dict.
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


class _Shape:
    """Interned layout of a row ``(shape, value, ...)``.

    ``keys[i]`` names ``row[i + 1]``.  A :class:`TraceEvent` row is
    ``(shape, time_s, flow, link, *payload)`` with its kind held here; a
    row made from a replayed dict has ``kind is _RECORD`` and carries
    ``"kind"`` as an ordinary key.  ``formatters`` maps the exact types
    of a row (``tuple(map(type, row))``) to its line formatter.
    """

    __slots__ = ("kind", "keys", "formatters")

    def __init__(self, kind: Any, keys: tuple) -> None:
        self.kind = kind
        self.keys = keys
        self.formatters: dict[tuple, Callable[[tuple], str]] = {}


@lru_cache(maxsize=4096)
def _shape(kind: Any, *names: Any) -> _Shape:
    # Only all-string layouts are interned: keys that are equal across
    # types (1, True, 1.0) would share an entry and encode as whichever
    # came first.  A raise is not cached.
    if not all(isinstance(name, str) for name in names):
        raise TypeError(f"trace field names must be strings, got {names!r}")
    if kind is not _RECORD and not isinstance(kind, str):
        raise TypeError(f"trace event kind must be a string, got {kind!r}")
    return _Shape(kind, names if kind is _RECORD else ("t", "flow", "link") + names)


class TraceEvent(tuple):
    """One trace event: what happened, when, and to whom.

    Stored flat — ``(shape, time_s, flow, link, *payload values)`` — so
    a recorded run holds one tuple per event instead of an object plus
    a kwargs dict; ``fields`` is rebuilt on access.
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
        return _new_event(cls, (_shape(kind, *fields), time_s, flow, link, *fields.values()))

    def __reduce__(self) -> tuple:
        return TraceEvent, (self.kind, self.time_s, self.flow, self.link, self.fields)

    kind = property(lambda self: self[0].kind)
    time_s = property(itemgetter(1))
    flow = property(itemgetter(2))
    link = property(itemgetter(3))

    @property
    def fields(self) -> dict[str, Any]:
        return dict(zip(self[0].keys[3:], self[4:]))

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe form (``t``/``kind`` first, payload merged).

        The envelope wins over a payload field of the same name.
        """
        record: dict[str, Any] = {"t": self[1], "kind": self[0].kind}
        if self[2] is not None:
            record["flow"] = self[2]
        if self[3] is not None:
            record["link"] = self[3]
        for key, value in zip(self[0].keys[3:], self[4:]):
            record.setdefault(key, value)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = f" flow={self.flow}" if self.flow is not None else ""
        who += f" link={self.link}" if self.link is not None else ""
        return f"<TraceEvent t={self.time_s:.6f} {self.kind}{who}>"


# ----------------------------------------------------------------------
# The canonical encoder
# ----------------------------------------------------------------------
def _row(event: TraceEvent | dict) -> tuple:
    if isinstance(event, TraceEvent):
        return event
    try:
        shape = _shape(_RECORD, *event)
    except TypeError:  # non-string keys: a one-off shape, generic encoder
        shape = _Shape(_RECORD, tuple(event))
    return (shape, *event.values())


def _generic_line(row: tuple) -> str:
    record = row.to_dict() if isinstance(row, TraceEvent) else dict(zip(row[0].keys, row[1:]))
    return _generic_encode(record) + "\n"


def _compile(shape: _Shape, types: tuple) -> Callable[[tuple], str]:
    """Line formatter for the rows of ``shape`` whose values have ``types``.

    Emits what the C encoder emits for exact ``int``/``float``/``str``
    (``repr`` and ``encode_basestring_ascii``) into a template whose
    keys are already sorted and escaped; a row with a non-finite float
    takes the generic encoder, as does the whole shape when a key or a
    type is anything else.
    """
    slots: list[tuple[Any, str, str | None]] = []  # key, template slot, argument
    floats = []
    is_event = shape.kind is not _RECORD
    if is_event:
        slots.append(("kind", _quote(shape.kind).replace("%", "%%"), None))
    for index, key in enumerate(shape.keys, start=1):
        kind_of = types[index]
        if kind_of is NoneType and is_event and index in (2, 3):
            continue  # no flow / no link: the key is absent, not null
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
    source = f"lambda r: {template!r} % ({''.join(arg + ',' for _, _, arg in slots if arg)})"
    if floats:  # nan and +-inf are the only floats x with x * 0.0 != 0.0
        source += f" if ({' + '.join(floats)}) * 0.0 == 0.0 else g(r)"
    return eval(source, {"q": _quote, "g": _generic_line})


def _line(row: tuple) -> str:
    types = tuple(map(type, row))
    formatter = row[0].formatters.get(types)
    if formatter is None:
        formatter = row[0].formatters[types] = _compile(row[0], types)
    return formatter(row)


def _chunks(rows: Iterable[tuple]) -> Iterator[str]:
    """Canonical JSONL of ``rows``, ``_CHUNK_LINES`` lines at a time."""
    rows = iter(rows)
    while chunk := "".join(map(_line, islice(rows, _CHUNK_LINES))):
        yield chunk


def _digest(chunks: Iterable[str], handle: IO[str] | None = None) -> str:
    """sha256 of the chunk stream, copying it to ``handle`` on the way."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk.encode())
        if handle is not None:
            handle.write(chunk)
    return hasher.hexdigest()


def event_to_json(record: TraceEvent | dict[str, Any]) -> str:
    """Canonical single-line JSON encoding of one event (dict).

    Sorted keys and fixed separators: the byte stream depends only on
    the event contents, never on insertion order or platform.
    """
    return _line(_row(record))[:-1]


def events_to_jsonl(events: Iterable[TraceEvent | dict]) -> str:
    """Events as canonical JSONL text (one event per line)."""
    return "".join(_chunks(map(_row, events)))


def trace_digest(events: Iterable[TraceEvent | dict]) -> str:
    """sha256 over the canonical JSONL encoding of ``events``."""
    return _digest(_chunks(map(_row, events)))


def write_jsonl(events: Iterable[TraceEvent | dict], path: str | Path) -> str:
    """Stream ``events`` to ``path`` as canonical JSONL; returns their digest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        return _digest(_chunks(map(_row, events)), handle)


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL trace file back into event dicts."""
    with Path(path).open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Filtering (shared by ``repro trace`` record and replay paths)
# ----------------------------------------------------------------------
def kind_matches(kind: str, pattern: str) -> bool:
    """True when ``pattern`` names ``kind`` or one of its namespaces.

    ``"link"`` matches ``link.enqueue``/``link.drop``/...;
    ``"link.drop"`` matches only itself.
    """
    return kind == pattern or kind.startswith(pattern + ".")


def filter_events(
    events: Iterable[TraceEvent | dict],
    *,
    flows: Iterable[int] | None = None,
    links: Iterable[str] | None = None,
    kinds: Iterable[str] | None = None,
) -> list:
    """Events (or event dicts) matching every given filter (None = no constraint)."""
    flow_set = None if flows is None else set(flows)
    link_set = None if links is None else set(links)
    kind_list = None if kinds is None else list(kinds)
    kept = []
    for event in events:
        if isinstance(event, TraceEvent):
            kind, flow, link = event[0].kind, event[2], event[3]
        else:
            kind, flow, link = event.get("kind", ""), event.get("flow"), event.get("link")
        if flow_set is not None and flow not in flow_set:
            continue
        if link_set is not None and link not in link_set:
            continue
        if kind_list is not None and not any(
            kind_matches(kind, pattern) for pattern in kind_list
        ):
            continue
        kept.append(event)
    return kept


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class CollectingTracer:
    """Keeps every event in memory (tests, ``repro trace``)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(
        self,
        kind: str,
        time_s: float,
        *,
        flow: int | None = None,
        link: str | None = None,
        **fields: Any,
    ) -> None:
        # TraceEvent(kind, time_s, flow, link, fields) without the __new__ frame.
        self.events.append(
            _new_event(
                TraceEvent, (_shape(kind, *fields), time_s, flow, link, *fields.values())
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def to_dicts(self) -> list[dict]:
        return [event.to_dict() for event in self.events]

    def to_jsonl(self) -> str:
        return "".join(_chunks(self.events))

    def digest(self) -> str:
        return _digest(_chunks(self.events))


class RingBufferTracer:
    """Keeps only the last ``capacity`` events — flight recorder mode.

    Cheap enough to leave armed around a whole supervised trial: the
    deque discards old events in O(1) (they are only turned into
    :class:`TraceEvent` rows when read), and :meth:`snapshot` renders
    the surviving tail as JSON-safe dicts for a
    :class:`~repro.harness.supervise.TrialOutcome` failure record.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[tuple] = deque(maxlen=capacity)

    def emit(
        self,
        kind: str,
        time_s: float,
        *,
        flow: int | None = None,
        link: str | None = None,
        **fields: Any,
    ) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append((kind, time_s, flow, link, fields))

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[TraceEvent]:
        return [TraceEvent(*item) for item in self._events]

    def snapshot(self) -> list[dict]:
        """The retained tail as event dicts, oldest first."""
        return [event.to_dict() for event in self.events()]


class JsonlTraceSink:
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

    def emit(
        self,
        kind: str,
        time_s: float,
        *,
        flow: int | None = None,
        link: str | None = None,
        **fields: Any,
    ) -> None:
        if self._handle is None:
            raise ValueError("trace sink is closed")
        line = _line(TraceEvent(kind, time_s, flow, link, fields))
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


class TeeTracer:
    """Fans every event out to several tracers."""

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers = tracers

    def emit(
        self,
        kind: str,
        time_s: float,
        *,
        flow: int | None = None,
        link: str | None = None,
        **fields: Any,
    ) -> None:
        for tracer in self.tracers:
            tracer.emit(kind, time_s, flow=flow, link=link, **fields)


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
