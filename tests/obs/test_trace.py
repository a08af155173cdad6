"""Unit tests for the tracing half of ``repro.obs``."""

import enum
import json
import pickle
import tracemalloc

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracepoint import tracepoint
from repro.obs import (
    CollectingTracer,
    JsonlTraceSink,
    RingBufferTracer,
    TeeTracer,
    TraceEvent,
    Tracer,
    active_tracer,
    event_to_json,
    events_to_jsonl,
    filter_events,
    install_tracer,
    kind_matches,
    read_jsonl,
    trace_digest,
    tracing,
    write_jsonl,
)


def test_trace_event_to_dict_shape():
    event = TraceEvent("link.drop", 1.5, flow=2, link="bottleneck", fields={"seq": 7})
    assert event.to_dict() == {
        "t": 1.5,
        "kind": "link.drop",
        "flow": 2,
        "link": "bottleneck",
        "seq": 7,
    }
    assert (event.kind, event.time_s, event.flow, event.link) == (
        "link.drop", 1.5, 2, "bottleneck",
    )
    assert event.fields == {"seq": 7}
    assert pickle.loads(pickle.dumps(event)) == event
    bare = TraceEvent("sim.run.begin", 0.0)
    assert bare.to_dict() == {"t": 0.0, "kind": "sim.run.begin"}
    assert bare.fields == {}


def test_event_to_json_is_canonical():
    # Same logical event, different insertion order -> same bytes.
    a = event_to_json({"t": 1.0, "kind": "x", "b": 2, "a": 1})
    b = event_to_json({"a": 1, "b": 2, "kind": "x", "t": 1.0})
    assert a == b
    assert " " not in a  # fixed separators, no whitespace


def test_jsonl_and_digest_round_trip(tmp_path):
    tracer = CollectingTracer()
    tracer.emit("mi.start", 0.1, flow=1, mi_id=1)
    tracer.emit("mi.end", 0.2, flow=1, mi_id=1, utility=3.5)
    text = tracer.to_jsonl()
    assert text.endswith("\n") and len(text.splitlines()) == 2
    assert trace_digest(tracer.events) == trace_digest(tracer.to_dicts())
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    assert read_jsonl(path) == tracer.to_dicts()
    assert events_to_jsonl([]) == ""


def test_kind_matches_namespaces():
    assert kind_matches("link.drop", "link")
    assert kind_matches("link.drop", "link.drop")
    assert not kind_matches("link.drop", "link.dr")
    assert not kind_matches("linkage.drop", "link")


def test_filter_events_all_dimensions():
    events = [
        {"t": 0.0, "kind": "link.enqueue", "flow": 1, "link": "bottleneck"},
        {"t": 0.1, "kind": "link.drop", "flow": 2, "link": "bottleneck"},
        {"t": 0.2, "kind": "mi.start", "flow": 2},
        {"t": 0.3, "kind": "sim.run.end"},
    ]
    assert len(filter_events(events)) == 4
    assert [e["kind"] for e in filter_events(events, flows=[2])] == [
        "link.drop",
        "mi.start",
    ]
    assert len(filter_events(events, links=["bottleneck"])) == 2
    assert len(filter_events(events, kinds=["link"])) == 2
    assert len(filter_events(events, kinds=["link.drop", "mi"])) == 2
    assert filter_events(events, flows=[2], kinds=["mi"]) == [events[2]]


def test_ring_buffer_keeps_tail_and_counts_drops():
    ring = RingBufferTracer(capacity=3)
    for i in range(5):
        ring.emit("tick", float(i), seq=i)
    assert len(ring) == 3
    assert ring.dropped == 2
    assert [e["seq"] for e in ring.snapshot()] == [2, 3, 4]
    with pytest.raises(ValueError):
        RingBufferTracer(capacity=0)


def test_jsonl_sink_streams_and_digest_matches(tmp_path):
    path = tmp_path / "sink.jsonl"
    with JsonlTraceSink(path) as sink:
        sink.emit("a", 0.0, flow=1)
        sink.emit("b", 1.0, link="reverse", extra=2.5)
        assert sink.count == 2
        running = sink.digest()
    records = read_jsonl(path)
    assert [r["kind"] for r in records] == ["a", "b"]
    assert trace_digest(records) == running
    with pytest.raises(ValueError):
        sink.emit("c", 2.0)


def test_tee_fans_out():
    first, second = CollectingTracer(), CollectingTracer()
    tee = TeeTracer(first, second)
    tee.emit("x", 0.5, flow=3, payload=1)
    assert len(first) == len(second) == 1
    assert first.to_dicts() == second.to_dicts()


def test_global_tracer_install_and_scope():
    assert active_tracer() is None
    tracer = CollectingTracer()
    previous = install_tracer(tracer)
    try:
        assert previous is None
        assert active_tracer() is tracer
    finally:
        install_tracer(previous)
    assert active_tracer() is None
    with tracing(tracer) as scoped:
        assert scoped is tracer
        assert active_tracer() is tracer
    assert active_tracer() is None


def test_sinks_satisfy_tracer_protocol():
    for sink in (
        CollectingTracer(),
        RingBufferTracer(),
        TeeTracer(),
    ):
        assert isinstance(sink, Tracer)


def test_digest_depends_on_content():
    one = [{"t": 0.0, "kind": "a"}]
    other = [{"t": 0.0, "kind": "b"}]
    assert trace_digest(one) != trace_digest(other)
    # Digest is over canonical bytes: dict order is irrelevant.
    assert trace_digest([{"kind": "a", "t": 0.0}]) == trace_digest(one)
    assert json.loads(event_to_json(one[0])) == one[0]


# ----------------------------------------------------------------------
# The compiled encoder is byte-identical to json.dumps
# ----------------------------------------------------------------------
class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _reference(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_AWKWARD = [
    -0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1.7976931348623157e308,
    2**53 + 1, -(2**64), _Level.HIGH, numpy.float64(1.5), numpy.float64("nan"),
    True, None, 'q"uo\\te', "caf\u00e9 \u2028 \U0001f600", "50%", "",
]
_scalars = st.one_of(
    st.sampled_from(_AWKWARD),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
_names = st.one_of(
    st.sampled_from(["t", "kind", "flow", "link", "seq", "rate_bps", "a%b", "caf\u00e9"]),
    st.text(min_size=1, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(_names, max_size=6, unique=True),
    data=st.data(),
)
def test_compiled_lines_equal_json_dumps(names, data):
    # Several rows per shape, so one layout meets several type tuples
    # (compiled formatter, non-finite fallback, generic fallback); a
    # None payload value often sits among compiled ones (a null slot).
    rows = data.draw(
        st.lists(st.tuples(*[st.none() | _values for _ in names]), min_size=1, max_size=4)
    )
    records = [dict(zip(names, row)) for row in rows]
    for record in records:
        assert event_to_json(record) == _reference(record)
    assert events_to_jsonl(records) == "".join(_reference(r) + "\n" for r in records)

    kind = data.draw(st.one_of(st.sampled_from(["link.drop", "mi.end"]), st.text(max_size=6)))
    envelope = st.tuples(
        st.floats(allow_nan=True, allow_infinity=True),
        st.none() | st.integers(min_value=0, max_value=2**65) | st.sampled_from([_Level.LOW]),
        st.none() | st.text(max_size=6),
    )
    events = [
        TraceEvent(kind, *data.draw(envelope), fields=dict(zip(names, row))) for row in rows
    ]
    expected = "".join(_reference(event.to_dict()) + "\n" for event in events)
    assert events_to_jsonl(events) == expected
    assert trace_digest(events) == trace_digest([event.to_dict() for event in events])


@pytest.mark.parametrize("value", _AWKWARD + [[1, 2.5, "x"], {"k": None}, 7, 0.1, "plain"], ids=repr)
def test_every_value_type_encodes_like_json_dumps(value):
    record = {"t": 0.25, "kind": "mi.end", "flow": 2, "value": value, "after": "s"}
    assert event_to_json(record) == _reference(record)
    for event in (
        TraceEvent("mi.end", 0.25, flow=2, fields={"value": value, "after": "s"}),
        TraceEvent("mi.end", value, flow=value, link=value, fields={"n": 1}),
    ):
        assert event_to_json(event) == _reference(event.to_dict())


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["link.drop", "mi.end"]) | st.text(max_size=6),
    # A keyword cannot be spelled like one of emit's own parameters.
    names=st.lists(
        _names.filter(lambda name: name not in ("self", "kind", "time_s", "flow", "link")),
        max_size=5, unique=True,
    ),
    data=st.data(),
)
def test_emit_by_name_and_record_by_row_are_the_same_event(tmp_path_factory, kind, names, data):
    envelope = st.tuples(
        st.floats(allow_nan=True, allow_infinity=True),
        st.none() | st.integers(min_value=0, max_value=2**65),
        st.none() | st.text(max_size=6),
    )
    events = data.draw(
        st.lists(st.tuples(envelope, st.tuples(*[_values for _ in names])), min_size=1, max_size=4)
    )
    directory = tmp_path_factory.mktemp("doors")
    seen = []
    for door in ("emit", "record"):
        collecting, ring = CollectingTracer(), RingBufferTracer(capacity=2)
        solo_ring = RingBufferTracer(capacity=2)
        with JsonlTraceSink(directory / f"{door}.jsonl") as sink, JsonlTraceSink(
            directory / f"{door}-solo.jsonl"
        ) as solo_sink:
            # Each sink on its own, and a tee over all three kinds.
            for target in (TeeTracer(collecting, ring, sink), solo_ring, solo_sink):
                for (time_s, flow, link), values in events:
                    if door == "emit":
                        target.emit(kind, time_s, flow=flow, link=link, **dict(zip(names, values)))
                    else:
                        target.record((tracepoint(kind, *names), time_s, flow, link, *values))
        assert ring.snapshot() == solo_ring.snapshot() == collecting.to_dicts()[-2:]
        assert sink.path.read_bytes() == solo_sink.path.read_bytes()
        assert collecting.digest() == sink.digest() == solo_sink.digest()
        assert [type(event) for event in collecting.events] == [TraceEvent] * len(events)
        seen.append((
            collecting.to_jsonl(), sink.path.read_text(), repr(collecting.to_dicts()),
            repr(ring.snapshot()), ring.dropped, sink.count, collecting.digest(),
        ))
    assert seen[0] == seen[1]
    assert seen[0][0] == seen[0][1]


def test_a_layout_whose_types_change_recompiles_nothing_and_returns_to_the_fast_path(monkeypatch):
    from repro.obs import trace as trace_module

    compiled = []
    real_compile = trace_module._compile

    def counting_compile(shape, types):
        compiled.append(types)
        return real_compile(shape, types)

    monkeypatch.setattr(trace_module, "_compile", counting_compile)
    shape = tracepoint("test.polymorphic", "seq", "utility")
    assert shape.line is None and not shape.formatters  # nothing else uses this layout
    flows = [None, 3] * 3
    odd = [float("nan"), float("inf"), True, _Level.HIGH, numpy.float64(2.5), None]
    rows = [(shape, 0.5 * i, flow, "hop", i, 1.25 * i) for i, flow in enumerate(flows)]
    rows += [(shape, 9.0, 3, "hop", 7, value) for value in odd]
    rows += [(shape, 0.5 * i, flow, "hop", i, 1.25 * i) for i, flow in enumerate(flows)]

    def reference(row):
        record = {"t": row[1], "kind": "test.polymorphic", "link": row[3], "seq": row[4],
                  "utility": row[5]}
        if row[2] is not None:
            record["flow"] = row[2]
        return _reference(record) + "\n"

    tracer = CollectingTracer()
    for row in rows:
        tracer.record(row)
    expected = "".join(map(reference, rows))
    assert tracer.to_jsonl() == expected
    # flow None / flow int with a float utility, then one signature each
    # for bool, IntEnum, numpy.float64 and None: nan and inf are floats.
    assert len(compiled) == len(set(compiled)) == 6
    fast = shape.line
    assert fast is not None and fast is not trace_module._generic_line
    assert fast in shape.formatters.values()
    # Same rows again: the compile cache answers, and the layout ends on
    # a compiled formatter, not on the generic encoder an odd value took.
    assert tracer.to_jsonl() == expected
    assert len(compiled) == 6
    assert shape.line is fast


def test_non_string_keys_take_the_generic_encoder():
    record = {3: "c", 1: "a"}
    assert event_to_json(record) == _reference(record) == '{"1":"a","3":"c"}'
    # Equal across types, different on the wire: never share a layout.
    for key in (1, True, 1.0):
        assert event_to_json({key: "a"}) == _reference({key: "a"})


def test_event_kind_and_field_names_must_be_strings():
    # Every sink refuses at emit time (the ring used to raise on read).
    for tracer in (CollectingTracer(), RingBufferTracer()):
        for kind in (1, None, ("a",)):
            with pytest.raises(TypeError):
                tracer.emit(kind, 0.0)
        assert len(tracer) == 0
    with pytest.raises(TypeError):
        TraceEvent("x", 0.0, fields={1: 2})


def test_envelope_wins_over_a_payload_field_of_the_same_name(tmp_path):
    # Regression: a field called `t` used to overwrite the timestamp.
    collecting, ring = CollectingTracer(), RingBufferTracer()
    path = tmp_path / "sink.jsonl"
    with JsonlTraceSink(path) as sink:
        TeeTracer(collecting, ring, sink).emit("x", 1.5, flow=1, t=99.0, seq=3)
    expected = {"t": 1.5, "kind": "x", "flow": 1, "seq": 3}
    assert collecting.to_dicts() == ring.snapshot() == read_jsonl(path) == [expected]
    assert collecting.to_jsonl() == path.read_text() == _reference(expected) + "\n"
    assert collecting.digest() == sink.digest() == trace_digest([expected])
    manual = TraceEvent("x", 1.5, fields={"kind": "y", "flow": 7})
    assert manual.to_dict() == {"t": 1.5, "kind": "x", "flow": 7}


def test_digest_and_file_output_allocate_a_chunk_not_the_trace(tmp_path):
    tracer = CollectingTracer()
    for i in range(60_000):
        tracer.emit(
            "link.enqueue", i * 1e-3, flow=1, link="bottleneck", node="src",
            seq=i, size_bytes=1500, backlog_bytes=1500.0 * (i % 200),
        )
    text = tracer.to_jsonl()
    path = tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        digest = tracer.digest()
        written = write_jsonl(tracer.rows, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == written == trace_digest(read_jsonl(path))
    assert path.read_text() == text
    # One chunk is ~4k lines (~0.6 MB of text plus its line strings and
    # encoded bytes); the whole text is ~9 MB.
    assert peak < len(text) / 3


def test_ring_snapshot_matches_the_collected_tail():
    collecting, ring = CollectingTracer(), RingBufferTracer(capacity=4)
    tee = TeeTracer(collecting, ring)
    for i in range(10):
        tee.emit("tick", i / 4, flow=i % 2 or None, seq=i, note="n%d" % i)
    assert ring.snapshot() == collecting.to_dicts()[-4:]
    assert [event.to_dict() for event in ring.events()] == ring.snapshot()
    assert ring.dropped == 6


# ----------------------------------------------------------------------
# CollectingTracer keeps the rows its sites built
# ----------------------------------------------------------------------
_ENQUEUE = tracepoint("test.rows.enqueue", "seq", "backlog_bytes")
_DEQUEUE = tracepoint("test.rows.dequeue", "seq")
_SCORED = tracepoint("test.rows.scored", "utility", "tag")


def _recorded(n=5):
    tracer = CollectingTracer()
    rows = [(_ENQUEUE, 0.5 * i, 1, "hop", i, 1500.0 * i) for i in range(n)]
    for row in rows:
        tracer.record(row)
    return tracer, rows


def test_collecting_tracer_keeps_the_rows_the_sites_passed():
    tracer, rows = _recorded()
    tracer.emit("test.rows.dequeue", 9.0, flow=2, seq=7)
    assert all(kept is row for kept, row in zip(tracer.rows, rows))
    assert type(tracer.rows[-1]) is tuple and len(tracer) == len(rows) + 1


def test_events_wraps_the_rows_in_place_once():
    tracer, rows = _recorded()
    events = tracer.events
    assert events is tracer.rows
    assert [type(event) for event in events] == [TraceEvent] * len(rows)
    assert events == rows
    wrapped = list(events)
    assert tracer.events is events
    assert all(again is first for again, first in zip(tracer.events, wrapped))
    # A row recorded after the first read is wrapped on the next one;
    # the events already wrapped stay the same objects.
    tracer.record((_DEQUEUE, 9.0, None, None, 3))
    assert tracer.events[:-1] == wrapped and all(
        again is first for again, first in zip(tracer.events, wrapped)
    )
    assert type(tracer.events[-1]) is TraceEvent and tracer.events[-1].kind == "test.rows.dequeue"


@pytest.mark.parametrize("read_events_first", [False, True])
def test_collecting_tracer_pickles_with_its_digest(read_events_first):
    tracer, _ = _recorded()
    tracer.emit("test.rows.scored", 3.0, flow=1, utility=-0.0, tag=None)
    if read_events_first:
        tracer.events
    digest, dicts = tracer.digest(), tracer.to_dicts()
    clone = pickle.loads(pickle.dumps(tracer))
    assert clone.digest() == digest and clone.to_dicts() == dicts
    assert len(clone) == len(tracer) and clone.events is clone.rows
    assert [type(event) for event in clone.rows] == [TraceEvent] * len(tracer)
    # Pickling wraps a copy: the tracer's own rows stay as they were.
    assert (type(tracer.rows[0]) is TraceEvent) is read_events_first


_ROW_VALUES = st.one_of(
    st.sampled_from([True, False, None, float("nan"), float("inf"), float("-inf"),
                     _Level.HIGH, -0.0, 0.0, 2**53 + 1]),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from([_ENQUEUE, _DEQUEUE, _SCORED]),
        st.booleans(),  # reuse the previous row's timestamp object
        st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1, True]),
        st.none() | st.integers(min_value=0, max_value=2**65) | st.just(_Level.LOW),
        st.none() | st.text(max_size=4),
    ),
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS, data=st.data())
def test_one_digest_over_rows_events_files_and_sinks(tmp_path_factory, steps, data):
    # -0.0 then 0.0 (equal, spelled differently), then rows of mixed
    # shapes that often carry the previous row's very timestamp object.
    rows = [(_DEQUEUE, -0.0, 1, None, 1), (_ENQUEUE, 0.0, 1, None, 2, 0.0)]
    for shape, shared, time_s, flow, link in steps:
        values = data.draw(st.tuples(*[_ROW_VALUES] * (len(shape.keys) - 3)))
        rows.append((shape, rows[-1][1] if shared else time_s, flow, link, *values))
    directory = tmp_path_factory.mktemp("rows")
    tracer = CollectingTracer()
    with JsonlTraceSink(directory / "sink.jsonl") as sink:
        tee = TeeTracer(tracer, sink)
        for row in rows:
            tee.record(row)
    digest = tracer.digest()
    assert tracer.to_jsonl() == "".join(
        _reference(TraceEvent.to_dict(row)) + "\n" for row in rows
    )
    assert trace_digest(tracer.rows) == digest == sink.digest()
    assert write_jsonl(tracer.rows, directory / "rows.jsonl") == digest
    assert trace_digest(read_jsonl(directory / "rows.jsonl")) == digest
    assert trace_digest(tracer.events) == digest == tracer.digest()
    assert (directory / "rows.jsonl").read_bytes() == sink.path.read_bytes()
