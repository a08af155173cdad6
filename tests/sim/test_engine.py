"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    InvariantChecker,
    InvariantError,
    SimBudgetExceeded,
    SimulationError,
    Simulator,
)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for label in range(5):
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "x")
    sim.run()
    assert sim.now == 5.0
    assert fired == ["x"]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["early", "late"]


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_pending_counts_only_live_events():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    assert keep.time == 1.0


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_schedule_fast_interleaves_with_events():
    # Fast-path and Event-path callbacks share one queue and one total
    # order (time, then scheduling sequence).
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "event@2")
    sim.schedule_fast(1.0, fired.append, "fast@1")
    sim.schedule_fast(2.0, fired.append, "fast@2")
    sim.schedule_fast_at(3.0, fired.append, "fast@3")
    sim.run()
    assert fired == ["fast@1", "event@2", "fast@2", "fast@3"]
    assert sim.now == 3.0


def test_schedule_fast_returns_no_handle():
    sim = Simulator()
    assert sim.schedule_fast(1.0, lambda: None) is None
    assert sim.schedule_fast_at(2.0, lambda: None) is None


def test_schedule_fast_validates_like_schedule():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_fast(-1.0, lambda: None)
    sim.schedule_fast(1.0, lambda: None)
    sim.run()


def test_schedule_fast_at_clamps_past_times_to_now():
    # A past timestamp is clamped to `now` (not an error): analytic
    # fast-forward can compute delivery times a rounding hair behind the
    # clock, and firing such an entry would move the clock backwards.
    from repro.obs import CollectingTracer

    tracer = CollectingTracer()
    sim = Simulator(tracer=tracer)
    sim.schedule_fast(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    fired = []
    sim.schedule_fast_at(0.5, fired.append, "late")
    sim.run()
    assert fired == ["late"]
    assert sim.now == 1.0  # clamped, not rewound
    past = [ev for ev in tracer.events if ev.kind == "sim.schedule.past"]
    assert len(past) == 1
    assert past[0].fields["scheduled_s"] == 0.5
    assert past[0].fields["lag_s"] == pytest.approx(0.5)


def test_pending_is_constant_time_and_counts_fast_events():
    sim = Simulator(check_invariants=False)
    for i in range(10):
        sim.schedule_fast(1.0 + i, lambda: None)
    events = [sim.schedule(20.0 + i, lambda: None) for i in range(5)]
    assert sim.pending() == 15
    events[0].cancel()
    events[1].cancel()
    assert sim.pending() == 13
    assert sim.heap_size() == 15  # lazy cancellation: entries still queued


def test_pending_counter_matches_scan_under_churn():
    sim = Simulator(check_invariants=False)
    events = []

    def churn():
        for event in events[::3]:
            event.cancel()

    events.extend(sim.schedule(5.0 + i, lambda: None) for i in range(90))
    sim.schedule_fast(1.0, churn)
    sim.run(until=2.0)
    assert sim.pending() == sim._pending_scan()


def test_cancel_after_fire_keeps_accounting_exact():
    sim = Simulator(check_invariants=False)
    event = sim.schedule(1.0, lambda: None)
    survivor = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)  # `event` has fired
    event.cancel()  # late cancel: harmless no-op
    assert sim.pending() == 1
    assert survivor.cancelled is False


def test_events_fired_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule_fast(1.0 + i, lambda: None)
    sim.schedule(9.0, lambda: None)
    sim.run()
    assert sim.events_fired == 5


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_property_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


# ----------------------------------------------------------------------
# Reference model of dispatch order
# ----------------------------------------------------------------------
# Times come from a three-value set so that ties are the rule, not the
# exception.  An entry is (delay, fast, action); an action is ("none",),
# ("child", fast) -- schedule a zero-delay child -- or ("cancel", k) --
# cancel the k-th (mod count) other cancellable entry sharing the
# entry's time.  A leg is one run(until, max_events) call, after which
# the test may cancel entry k (mod count) from outside, as a caller
# holding its handle would; a tripped budget leaves the entry it
# popped queued, so that cancel must still count.
_TIMES = (0.0, 0.5, 1.0)
_ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("child"), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
)
_ENTRIES = st.lists(
    st.tuples(st.sampled_from(_TIMES), st.booleans(), _ACTIONS), min_size=1, max_size=14
)
_LEGS = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.25, 0.5, 1.0, None)),
        st.one_of(st.none(), st.integers(1, 4)),
        st.one_of(st.none(), st.integers(0, 13)),
    ),
    min_size=1,
    max_size=4,
)


def _cancel_targets(entries):
    """Entry index -> the index its ("cancel", k) action cancels, if any."""
    targets = {}
    for i, (delay, _, action) in enumerate(entries):
        if action[0] != "cancel":
            continue
        siblings = [
            j
            for j, (other_delay, fast, _) in enumerate(entries)
            if j != i and not fast and other_delay == delay
        ]
        if siblings:
            targets[i] = siblings[action[1] % len(siblings)]
    return targets


def _run_engine(entries, legs):
    sim = Simulator()
    fired, handles = [], {}
    targets = _cancel_targets(entries)

    def handler(label, action):
        fired.append((label, sim.now))
        if action[0] == "child":
            schedule = sim.schedule_fast if action[1] else sim.schedule
            schedule(0.0, handler, f"{label}/child", ("none",))
        elif action[0] == "cancel" and label in targets:
            handles[targets[label]].cancel()

    for i, (delay, fast, action) in enumerate(entries):
        if fast:
            sim.schedule_fast(delay, handler, i, action)
        else:
            handles[i] = sim.schedule(delay, handler, i, action)
    observed = []
    for until, budget, cancel in legs + [(None, None, None)]:
        try:
            sim.run(until=until, max_events=budget)
            tripped = False
        except SimBudgetExceeded:
            tripped = True
        if cancel is not None and cancel % len(entries) in handles:
            handles[cancel % len(entries)].cancel()
        observed.append((tripped, tuple(fired), sim.now, sim.events_fired, sim.pending()))
    return observed


def _run_model(entries, legs):
    """The same program on a plain list popped in (time, seq) order."""
    queue, fired, observed = [], [], []
    targets = _cancel_targets(entries)
    seq_of = {}
    now, total, seq = 0.0, 0, 0

    def push(time_s, label, action):
        nonlocal seq
        seq += 1
        queue.append((time_s, seq, label, action))
        return seq

    for i, (delay, _, action) in enumerate(entries):
        seq_of[i] = push(delay, i, action)
    for until, budget, cancel in legs + [(None, None, None)]:
        count, tripped = 0, False
        while queue:
            head = min(queue)
            if until is not None and head[0] > until:
                break
            if budget is not None and count >= budget:
                tripped = True
                break
            queue.remove(head)
            now, _, label, action = head
            fired.append((label, now))
            count += 1
            if action[0] == "child":
                push(now, f"{label}/child", ("none",))
            elif action[0] == "cancel" and label in targets:
                victim = seq_of[targets[label]]
                queue[:] = [entry for entry in queue if entry[1] != victim]
        total += count
        if not tripped and until is not None and until > now:
            now = until
        if cancel is not None and not entries[cancel % len(entries)][1]:
            victim = seq_of[cancel % len(entries)]
            queue[:] = [entry for entry in queue if entry[1] != victim]
        observed.append((tripped, tuple(fired), now, total, len(queue)))
    return observed


@settings(max_examples=300, deadline=None)
@given(_ENTRIES, _LEGS)
def test_dispatch_matches_a_reference_model_under_ties(entries, legs):
    # Firing order, clock, events_fired and pending() after every leg,
    # including legs whose event budget trips in the middle of a tie.
    assert _run_engine(entries, legs) == _run_model(entries, legs)


@pytest.mark.parametrize(
    "threshold, start_s",
    [
        pytest.param(threshold, start_s, id=f"{threshold}" if start_s else f"{threshold}-at-t0")
        for start_s in (1.0, 0.0)
        for threshold in (1, 2, 5, 32)
    ],
)
def test_stall_tripwire_trips_on_the_event_after_the_threshold(threshold, start_s):
    sim = Simulator(check_invariants=False)
    sim.invariants = InvariantChecker(sim, max_stall_events=threshold)

    def spin():
        sim.schedule_fast(0.0, spin)

    sim.schedule_fast(start_s, spin)  # at the attach-time clock, or past it
    with pytest.raises(InvariantError, match="stalled"):
        sim.run()
    # The first event starts the run of same-time events, whether or not
    # it advanced the clock; the tripwire fires once `threshold` more
    # have followed it.
    assert sim.events_fired == threshold + 1
    assert sim.now == start_s
