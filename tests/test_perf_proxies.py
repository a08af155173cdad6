"""The performance gate: exact event, packet and call counts.

Wall-clock floors drift with the host, so the hot paths are pinned by
integers that repeat bit-exactly on any machine and interpreter
(docs/PERFORMANCE.md): events the engine dispatched or absorbed,
packets sent, and Python-level calls into ``src/repro`` frames.  An
extra ``schedule`` per packet or one more helper call on the
per-packet path moves a number here; timing noise cannot.

When a change moves these counts on purpose, the failure message
prints the whole measured table — paste it over ``EXPECTED`` and say
why in the PR.  There is deliberately no update flag.
"""

import gc
import sys

import pytest

from repro.harness import (
    EMULAB_DEFAULT,
    FlowSpec,
    LinkConfig,
    disable_cache,
    load_topology,
    run_flows,
    run_many,
)
from repro.harness.cache import reset_cache_state
from repro.obs import CollectingTracer

CONFIG = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)

COLUMNS = ("fired", "virtual", "packets", "calls", "records", "emits", "cycles")
"""Events dispatched, events absorbed analytically, packets sent, calls
into ``src/repro`` frames, how many of those calls were ``record``
(the one call every stored trace event passes through) and by-name
``emit`` (the door for callers outside the package, which builds the
row first, then calls ``record``), and the objects the cyclic garbage
collector finds once the result is dropped (the run goes with the
collector disabled: a finished run must free itself by reference
counting, so a reference cycle left in the network shows here)."""

EXPECTED = {
    "pair_exact": (19045, 12074, 16972, 196938, 0, 0, 0),
    "pair_hybrid": (12289, 12712, 12955, 110342, 0, 0, 0),
    "pair_traced": (31119, 0, 16972, 339902, 31848, 0, 0),
    "many_flows": (12756, 10385, 5261, 137408, 0, 0, 0),
    "many_flows_traced": (23141, 0, 5261, 185281, 23439, 0, 0),
    "codel_parking_lot": (46541, 23035, 8087, 299542, 0, 0, 0),
}


def _pair(duration_s, **kwargs):
    """cubic from t=0 and proteus-s from t=1 s on 50 Mbps / 30 ms / 375 KB."""
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)]
    return run_flows(specs, CONFIG, duration_s=duration_s, seed=1, **kwargs)


def _many(**kwargs):
    """100 x 50 KB cubic flows against 4 proteus-s over the shared core, 2 s."""
    return run_many(
        "cubic", "proteus-s", EMULAB_DEFAULT,
        n_flows=100, duration_s=2.0, seed=1, fidelity="exact", **kwargs,
    )


SCENARIOS = {
    "pair_exact": lambda tracer: _pair(3.0, fidelity="exact"),
    "pair_hybrid": lambda tracer: _pair(3.0, fidelity="hybrid"),
    "pair_traced": lambda tracer: _pair(3.0, fidelity="exact", tracer=tracer),
    "many_flows": lambda tracer: _many(),
    # Its own tracer: ``pair_traced``'s holds exactly that run's rows.
    "many_flows_traced": lambda tracer: _many(tracer=CollectingTracer()),
    "codel_parking_lot": lambda tracer: _pair(
        2.0, fidelity="exact", topology=load_topology("parking-lot-codel")
    ),
}


def _measure(run, tracer):
    calls = records = emits = 0

    def profile(frame, event, arg):
        nonlocal calls, records, emits
        if event == "call":
            code = frame.f_code
            if "/repro/" in code.co_filename and not code.co_name.startswith("<"):
                calls += 1
                records += code.co_name == "record"
                emits += code.co_name == "emit"

    gc.collect()
    gc.disable()
    try:
        sys.setprofile(profile)
        try:
            result = run(tracer)
        finally:
            sys.setprofile(None)
        assert result.dumbbell is not None  # simulated live, not rebuilt from a cache
        sim = result.dumbbell.sim
        packets = sum(stats.packets_sent for stats in result.stats)
        row = (sim.events_fired, sim.events_virtual, packets, calls, records, emits)
        del result, sim
        return (*row, gc.collect())
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def measured():
    """``(table, tracer)``: every scenario measured once, under pinned settings."""
    tracer = CollectingTracer()
    table = {}
    with pytest.MonkeyPatch.context() as patch:
        # The suite arms the invariant checker (conftest.py); its calls
        # are not the hot path, so the counts are taken with it off.
        patch.setenv("REPRO_CHECK_INVARIANTS", "0")
        patch.delenv("REPRO_MAX_EVENTS", raising=False)
        disable_cache()
        try:
            for name, run in SCENARIOS.items():
                # Process-wide memoisation (trace shape interning) makes a
                # first run dearer than a repeat; count the repeat so the
                # table does not depend on which tests ran before.
                run(CollectingTracer())
                table[name] = _measure(run, tracer)
        finally:
            reset_cache_state()
    return table, tracer


def test_counts_match_the_committed_table(measured):
    table, _ = measured
    rows = "\n".join(f'    "{name}": {row},' for name, row in table.items())
    assert table == EXPECTED, f"measured {COLUMNS}:\n{rows}"


def test_hybrid_fast_forward_keeps_paying_for_itself(measured):
    # Exact mode collapses round trips too; what hybrid adds is paced
    # bursts, which must still halve the event chain and beat exact.
    table, _ = measured
    exact_fired, exact_virtual, *_ = table["pair_exact"]
    hybrid_fired, hybrid_virtual, *_ = table["pair_hybrid"]
    assert hybrid_fired < (exact_fired + exact_virtual) / 2
    assert hybrid_fired < exact_fired
    assert hybrid_virtual > 0


def test_exact_mode_collapse_neither_drops_nor_adds_work(measured):
    # A traced exact run keeps the whole event chain; the untraced run
    # of the same scenario must account for exactly those events, each
    # either dispatched or absorbed.
    table, _ = measured
    fired, virtual, packets, *_ = table["pair_exact"]
    traced_fired, traced_virtual, traced_packets, *_ = table["pair_traced"]
    assert traced_virtual == 0 and virtual > 0
    assert fired + virtual == traced_fired
    assert packets == traced_packets


def test_exact_mode_walk_neither_drops_nor_adds_work(measured):
    # The shared-core twin of the test above: each ACK hop of a short
    # flow is walked, and a bounded flow's completion stays an event.
    table, _ = measured
    fired, virtual, packets, *_ = table["many_flows"]
    traced_fired, traced_virtual, traced_packets, *_ = table["many_flows_traced"]
    assert traced_virtual == 0 and virtual > 0
    assert fired + virtual == traced_fired
    assert packets == traced_packets
    assert fired <= 0.6 * traced_fired


def test_an_exact_mode_event_stays_under_ten_calls(measured):
    # Per event of the chain (dispatched + absorbed), so collapsing a
    # round trip cannot hide a dearer hop.  A flow's route is resolved
    # once (Path.route), so a packet hop is link.send + _admit; 12.5
    # calls per event when every hop re-routed, 9.1 before exact mode
    # collapsed round trips.
    fired, virtual, _, calls, *_ = measured[0]["pair_exact"]
    assert calls / (fired + virtual) < 10


def test_tracing_costs_nothing_until_a_tracer_is_attached(measured):
    table, tracer = measured
    doors = {
        name: row[COLUMNS.index("records"):COLUMNS.index("cycles")]
        for name, row in table.items()
    }
    records, emits = doors.pop("pair_traced")
    many_records, many_emits = doors.pop("many_flows_traced")
    assert set(doors.values()) == {(0, 0)}, doors
    assert records == len(tracer.events) > 0
    assert many_records > 0 and many_emits == 0


def test_per_packet_sites_record_rows(measured):
    # Every site in the package hands over a row of a declared
    # tracepoint; by-name ``emit`` is for callers outside it.  One site
    # sliding back to keywords breaks this.
    *_, records, emits, _cycles = measured[0]["pair_traced"]
    assert records > 0 and emits == 0
