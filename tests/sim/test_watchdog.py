"""Engine watchdog budgets and the clock-stall invariant tripwire."""

import pickle

import pytest

from repro.sim.engine import SimBudgetExceeded, Simulator, env_max_events
from repro.sim.invariants import InvariantChecker, InvariantError


def livelock(sim):
    """A zero-dt self-rescheduling bug: the clock never advances."""

    def spin():
        sim.schedule_fast(0.0, spin)

    sim.schedule_fast(0.0, spin)


def test_event_budget_trips_on_zero_dt_livelock():
    sim = Simulator(check_invariants=False)
    livelock(sim)
    with pytest.raises(SimBudgetExceeded) as info:
        sim.run(max_events=500)
    assert info.value.events_fired == 500
    assert info.value.max_events == 500
    assert sim.now == 0.0
    # The engine stayed consistent: the queue still holds the next spin.
    assert sim.pending() == 1


def test_budget_is_per_run_call():
    sim = Simulator(check_invariants=False)
    fired = []
    for i in range(6):
        sim.schedule_fast(0.1 * (i + 1), fired.append, i)
    sim.run(until=0.35, max_events=4)
    sim.run(until=0.65, max_events=4)  # fresh budget for the second call
    assert fired == [0, 1, 2, 3, 4, 5]


def test_budget_exactly_at_event_count_passes():
    sim = Simulator(check_invariants=False)
    for i in range(4):
        sim.schedule_fast(0.1 * (i + 1), lambda: None)
    sim.run(max_events=4)
    assert sim.events_fired == 4


def test_until_fast_forward_skipped_on_budget_trip():
    sim = Simulator(check_invariants=False)
    livelock(sim)
    with pytest.raises(SimBudgetExceeded):
        sim.run(until=10.0, max_events=100)
    assert sim.now == 0.0  # no fast-forward past the livelock


def test_wall_budget_trips_livelock():
    sim = Simulator(check_invariants=False)
    livelock(sim)
    with pytest.raises(SimBudgetExceeded) as info:
        sim.run(max_wall_s=0.05)
    assert info.value.max_wall_s == 0.05
    assert info.value.wall_s is not None and info.value.wall_s > 0.0


def test_env_budget_honored(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "200")
    assert env_max_events() == 200
    sim = Simulator(check_invariants=False)
    livelock(sim)
    with pytest.raises(SimBudgetExceeded) as info:
        sim.run()
    assert info.value.max_events == 200


@pytest.mark.parametrize("raw", ["", "0"])
def test_env_budget_unlimited_values(monkeypatch, raw):
    monkeypatch.setenv("REPRO_MAX_EVENTS", raw)
    assert env_max_events() is None


@pytest.mark.parametrize("raw", ["nope", "-3", "0.5"])
def test_env_budget_rejects_garbage(monkeypatch, raw):
    monkeypatch.setenv("REPRO_MAX_EVENTS", raw)
    with pytest.raises(ValueError):
        env_max_events()


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "5")
    sim = Simulator(check_invariants=False)
    for i in range(20):
        sim.schedule_fast(0.1 * (i + 1), lambda: None)
    sim.run(max_events=100)  # env would have tripped at 5
    assert sim.events_fired == 20


def test_budgeted_run_matches_unbudgeted(monkeypatch):
    def drive(sim):
        fired = []
        for i in range(50):
            sim.schedule_fast(0.01 * (i + 1), fired.append, i)
        return fired

    a = Simulator(check_invariants=False)
    fired_a = drive(a)
    a.run()
    b = Simulator(check_invariants=False)
    fired_b = drive(b)
    b.run(max_events=10_000, max_wall_s=60.0)
    assert fired_a == fired_b
    assert a.now == b.now


def test_sim_budget_exceeded_pickles_intact():
    exc = SimBudgetExceeded(
        "boom", events_fired=7, max_events=5, wall_s=1.5, max_wall_s=1.0
    )
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, SimBudgetExceeded)
    assert str(clone) == "boom"
    assert clone.events_fired == 7
    assert clone.max_events == 5
    assert clone.wall_s == 1.5
    assert clone.max_wall_s == 1.0


def test_invariant_stall_detector_names_the_cause():
    threshold = 32
    sim = Simulator(check_invariants=False)
    sim.invariants = InvariantChecker(sim, max_stall_events=threshold)
    livelock(sim)
    with pytest.raises(InvariantError, match="stalled"):
        sim.run()
    # The first event (at t=0, the attach-time clock) starts the run.
    assert sim.events_fired == threshold + 1


def test_invariant_stall_detector_allows_same_time_bursts():
    sim = Simulator(check_invariants=False)
    sim.invariants = InvariantChecker(sim, max_stall_events=32)
    for _ in range(20):  # 20 simultaneous arrivals: under the threshold
        sim.schedule_fast_at(1.0, lambda: None)
    sim.schedule_fast_at(2.0, lambda: None)
    sim.run()
    assert sim.events_fired == 21


def test_invariant_stall_threshold_validated():
    sim = Simulator(check_invariants=False)
    with pytest.raises(ValueError):
        InvariantChecker(sim, max_stall_events=0)
