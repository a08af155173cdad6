"""Fault-tolerant supervised execution: outcomes, retries, crash
recovery, and manifest checkpoint/resume."""

import json
import os
import time
from dataclasses import asdict

import pytest

from repro.devtools.determinism import stats_digest
from repro.harness.runner import FlowSpec, run_flows
from repro.harness.scenarios import LinkConfig, config_matrix
from repro.harness.supervise import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    RetryPolicy,
    SweepManifest,
    TrialOutcome,
    default_retries,
    run_matrix,
    summarize_outcomes,
    supervised_map,
    trial_payload,
)
from repro.harness.trials import run_trials, run_trials_supervised
from repro.sim.engine import SimBudgetExceeded, Simulator

FAST = RetryPolicy(retries=1, backoff_base_s=0.0, jitter_fraction=0.0)
NO_RETRY = RetryPolicy(retries=0, backoff_base_s=0.0, jitter_fraction=0.0)

_LINK = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_kb=50.0)


# -- module-level (picklable) workloads --------------------------------
def _double(x: int) -> int:
    return 2 * x


def _poison_three(x: int):
    if x == 3:
        raise ValueError("poisoned input")
    return 2 * x


def _flaky(item):
    """Fails on the first attempt, succeeds once its marker file exists."""
    path, x = item
    if not os.path.exists(path):
        open(path, "w").close()
        raise RuntimeError("transient failure")
    return x


def _needs_file(item):
    path, x = item
    if not os.path.exists(path):
        raise RuntimeError("missing dependency")
    return 2 * x


def _crash_once(item):
    path, x = item
    if not os.path.exists(path):
        open(path, "w").close()
        os._exit(13)  # hard worker death: no exception, no cleanup
    return x + 100


def _crash_if_poison(item):
    if item == "poison":
        os._exit(13)
    return 7


def _crash_or_linger(item):
    """The poison dies at once; a bystander is still in flight when it does."""
    if item == "poison":
        os._exit(13)
    time.sleep(0.5)
    return item


def _livelock_trial(_seed: int, max_events=200, max_wall_s=None):
    sim = Simulator(check_invariants=False)

    def spin():
        sim.schedule_fast(0.0, spin)

    sim.schedule_fast(0.0, spin)
    sim.run(max_events=max_events, max_wall_s=max_wall_s)


def _wall_livelock_trial(seed: int):
    _livelock_trial(seed, max_events=None, max_wall_s=0.02)


def _mixed_trial(x: int):
    """ok, raising and event-budget trials in one batch."""
    if x == 3:
        raise ValueError("poisoned input")
    if x == 4:
        _livelock_trial(x)
    return 2 * x


def _digest_trial(seed: int) -> str:
    result = run_flows([FlowSpec("cubic")], _LINK, duration_s=1.5, seed=seed)
    return stats_digest(result.stats)


def _half_or_fail(seed: int) -> float:
    if seed == 3:
        raise ValueError("poisoned seed")
    return seed * 0.5


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def test_default_retries_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRIAL_RETRIES", raising=False)
    assert default_retries() == 2
    monkeypatch.setenv("REPRO_TRIAL_RETRIES", "5")
    assert default_retries() == 5
    assert RetryPolicy().max_attempts() == 6
    monkeypatch.setenv("REPRO_TRIAL_RETRIES", "-1")
    with pytest.raises(ValueError):
        default_retries()
    monkeypatch.setenv("REPRO_TRIAL_RETRIES", "lots")
    with pytest.raises(ValueError):
        default_retries()


def test_backoff_is_deterministic_and_capped():
    policy = RetryPolicy(
        retries=5, backoff_base_s=0.1, backoff_factor=2.0, backoff_cap_s=0.8,
        jitter_fraction=0.25, seed=7,
    )
    # Same (seed, index, attempt) -> same pause; no wall clock involved.
    assert policy.backoff_s(2, 4) == policy.backoff_s(2, 4)
    assert policy.backoff_s(2, 4) != policy.backoff_s(2, 5)
    for attempt in range(1, 12):
        pause = policy.backoff_s(attempt, 0)
        assert 0.0 < pause <= 0.8 * 1.25
    # Jitter-free backoff is the exact capped exponential.
    flat = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                       backoff_cap_s=0.8, jitter_fraction=0.0)
    assert flat.backoff_s(1, 0) == pytest.approx(0.1)
    assert flat.backoff_s(2, 0) == pytest.approx(0.2)
    assert flat.backoff_s(10, 0) == pytest.approx(0.8)


# ----------------------------------------------------------------------
# Manifest round trips must be exact
# ----------------------------------------------------------------------
def _exact_value(x: float) -> dict:
    return {
        "x": x,
        "ratio": 0.1 + 0.2,  # a float that formatting would mangle
        "zero": -0.0,
        "big": float("inf"),
        "count": 3,
        "label": "0x1.8p+0",  # a string that *looks* like a hex float
        "flags": [True, False, None],
        "nested": {"xs": [1.5, 2.5]},
    }


def test_a_resumed_outcome_equals_the_fresh_one(tmp_path):
    manifest = tmp_path / "m.jsonl"
    items = [1.5, 1e-300]
    payloads = [{"kind": "exact", "x": x, "xs": [x, -0.0]} for x in items]

    def outcomes() -> list[dict]:
        found = supervised_map(
            _exact_value, items, payloads=payloads, seeds=[1, 2], jobs=1,
            policy=NO_RETRY, manifest=manifest,
        )
        return [asdict(outcome) for outcome in found]

    fresh = outcomes()
    resumed = outcomes()
    assert [o["resumed"] for o in fresh + resumed] == [False, False, True, True]
    for outcome in fresh + resumed:
        del outcome["resumed"]
    assert resumed == fresh
    # -0.0 stays negative and every float stays a float of the same value.
    assert json.dumps(resumed, sort_keys=True) == json.dumps(fresh, sort_keys=True)
    assert resumed[0]["payload"] == {"kind": "exact", "x": 1.5, "xs": [1.5, -0.0]}


def _object_keyed_if_zero(x: int):
    return {1.5: object()} if x == 0 else {"x": x}


def test_a_value_json_cannot_write_fails_alone(tmp_path):
    manifest = tmp_path / "m.jsonl"
    outcomes = supervised_map(
        _object_keyed_if_zero, [1, 0, 1], jobs=1, policy=NO_RETRY,
        manifest=manifest,
    )
    assert [o.status for o in outcomes] == [STATUS_OK, STATUS_FAILED, STATUS_OK]
    assert outcomes[1].value is None and outcomes[1].attempts == 1
    assert "value has key 1.5 of type float" in outcomes[1].error
    lines = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert [line["status"] for line in lines] == ["ok", "failed", "ok"]


def _int_keyed(_x: int) -> dict:
    return {1: 2.5}


def test_a_value_resume_would_change_is_refused(tmp_path):
    manifest = tmp_path / "m.jsonl"
    for _ in range(2):
        (outcome,) = supervised_map(
            _int_keyed, [0], jobs=1, policy=NO_RETRY, manifest=manifest,
            resume_statuses=(STATUS_OK, STATUS_FAILED),
        )
        assert outcome.status == STATUS_FAILED and outcome.value is None
        assert "value has key 1 of type int" in outcome.error
    assert outcome.resumed
    nested = supervised_map(
        lambda x: {"a": [1, (2, 3)]}, [0], jobs=1, policy=NO_RETRY,
        manifest=tmp_path / "n.jsonl",
    )
    assert nested[0].error.endswith("value['a'][1] is of type tuple")


# ----------------------------------------------------------------------
# supervised_map: failure isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_poisoned_item_fails_without_aborting_siblings(jobs):
    outcomes = supervised_map(_poison_three, [1, 2, 3, 4], jobs=jobs, policy=FAST)
    assert [o.status for o in outcomes] == [
        STATUS_OK, STATUS_OK, STATUS_FAILED, STATUS_OK,
    ]
    assert [o.value for o in outcomes if o.ok] == [2, 4, 8]
    failed = outcomes[2]
    assert failed.attempts == FAST.max_attempts()
    assert "poisoned input" in failed.error
    assert "ValueError" in failed.traceback  # real traceback captured
    assert not failed.ok


def test_transient_failure_recovers_via_retry(tmp_path):
    marker = tmp_path / "marker"
    outcomes = supervised_map(
        _flaky, [(str(marker), 42)], jobs=1, policy=FAST
    )
    assert outcomes[0].status == STATUS_OK
    assert outcomes[0].value == 42
    assert outcomes[0].attempts == 2


def test_timed_out_status_from_watchdog_trip():
    outcomes = supervised_map(_livelock_trial, [1], jobs=1, policy=NO_RETRY)
    assert outcomes[0].status == STATUS_TIMED_OUT
    assert "budget" in outcomes[0].error


def test_timed_out_crosses_process_boundary():
    outcomes = supervised_map(_livelock_trial, [1, 2], jobs=2, policy=NO_RETRY)
    assert {o.status for o in outcomes} == {STATUS_TIMED_OUT}


@pytest.mark.parametrize("jobs", [1, 2])
def test_event_budget_trip_is_final_on_first_attempt(jobs):
    # The same input trips the same event budget every time: no retry,
    # no backoff sleep, under the default policy.
    outcomes = supervised_map(_livelock_trial, [1, 2], jobs=jobs)
    assert [o.status for o in outcomes] == [STATUS_TIMED_OUT] * 2
    assert [o.attempts for o in outcomes] == [1, 1]


def test_wall_budget_trip_is_retried():
    # How far a run gets in a wall budget depends on the host.
    outcomes = supervised_map(_wall_livelock_trial, [1], jobs=1, policy=FAST)
    assert outcomes[0].status == STATUS_TIMED_OUT
    assert outcomes[0].attempts == FAST.max_attempts()


def test_failure_records_do_not_depend_on_jobs(tmp_path):
    manifests = []
    for jobs in (1, 2):
        manifests.append(tmp_path / f"jobs{jobs}.jsonl")
        outcomes = supervised_map(
            _mixed_trial, [1, 2, 3, 4], jobs=jobs, policy=FAST,
            manifest=manifests[-1],
        )
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_OK, STATUS_FAILED, STATUS_TIMED_OUT,
        ]
    assert manifests[0].read_bytes() == manifests[1].read_bytes()


def test_unpicklable_fn_runs_serial_supervised():
    calls = []

    def closure(x):
        calls.append(x)
        if x == 2:
            raise RuntimeError("nope")
        return x

    outcomes = supervised_map(closure, [1, 2], jobs=4, policy=NO_RETRY)
    assert [o.status for o in outcomes] == [STATUS_OK, STATUS_FAILED]
    assert calls == [1, 2]  # ran in-process


# ----------------------------------------------------------------------
# supervised_map: worker crash recovery
# ----------------------------------------------------------------------
def test_crashed_worker_retried_and_recovered(tmp_path):
    marker = tmp_path / "crashed"
    items = [(str(tmp_path / "a"), 1), (str(marker), 2), (str(tmp_path / "c"), 3)]
    for path, _ in (items[0], items[2]):
        open(path, "w").close()  # only item 2 crashes, once
    outcomes = supervised_map(_crash_once, items, jobs=2, policy=FAST)
    assert [o.status for o in outcomes] == [STATUS_OK] * 3
    assert [o.value for o in outcomes] == [101, 102, 103]
    assert outcomes[1].attempts >= 2


def test_always_crashing_item_never_rerun_in_driver():
    outcomes = supervised_map(
        _crash_if_poison, ["poison", "fine", "fine"], jobs=2, policy=FAST
    )
    assert outcomes[0].status == STATUS_CRASHED  # and this process survived
    assert outcomes[0].attempts == FAST.max_attempts()
    assert [o.status for o in outcomes[1:]] == [STATUS_OK, STATUS_OK]
    assert [o.value for o in outcomes[1:]] == [7, 7]


def test_bystanders_are_not_blamed_for_a_neighbours_crash():
    # Every pool the poison shares dies under the bystanders' feet; only
    # the item that also kills a pool of its own is a crashed-worker.
    items = ["a", "poison", "b", "c"]
    outcomes = supervised_map(_crash_or_linger, items, jobs=4, policy=FAST)
    assert [o.status for o in outcomes] == [
        STATUS_OK, STATUS_CRASHED, STATUS_OK, STATUS_OK,
    ]
    assert [o.value for o in outcomes if o.ok] == ["a", "b", "c"]
    assert outcomes[1].attempts == FAST.max_attempts()


# ----------------------------------------------------------------------
# Manifest: journal, torn lines, resume
# ----------------------------------------------------------------------
def test_manifest_append_load_round_trip(tmp_path):
    manifest = SweepManifest(tmp_path / "m.jsonl")
    outcome = TrialOutcome(
        status=STATUS_OK, key="k1", value={"x": 1.5}, seed=3,
        payload={"kind": "t"}, attempts=1,
    )
    manifest.append(outcome)
    records = manifest.load()
    assert set(records) == {"k1"}
    restored = TrialOutcome.from_record(records["k1"])
    assert restored.resumed and restored.ok
    assert restored.value == {"x": 1.5}
    assert restored.seed == 3


def test_manifest_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "m.jsonl"
    manifest = SweepManifest(path)
    manifest.append(TrialOutcome(status=STATUS_OK, key="k1", value=1, attempts=1))
    with path.open("a") as handle:
        handle.write('{"schema": 1, "key": "k2", "status": "ok", "val')
    records = manifest.load()
    assert set(records) == {"k1"}
    assert manifest.torn_lines == 1
    # The journal stays appendable after the torn write.
    manifest.append(TrialOutcome(status=STATUS_OK, key="k3", value=3, attempts=1))
    assert set(manifest.load()) == {"k1", "k3"}


def test_manifest_last_write_wins_per_key(tmp_path):
    manifest = SweepManifest(tmp_path / "m.jsonl")
    manifest.append(TrialOutcome(status=STATUS_FAILED, key="k", error="x", attempts=2))
    manifest.append(TrialOutcome(status=STATUS_OK, key="k", value=9, attempts=3))
    records = manifest.load()
    assert records["k"]["status"] == STATUS_OK


@pytest.mark.parametrize("jobs", [1, 4])
def test_resume_is_byte_identical(tmp_path, jobs):
    manifest = tmp_path / "sweep.jsonl"
    # Reference: one uninterrupted run, no manifest.
    reference = [
        o.value
        for o in run_trials_supervised(_digest_trial, n_trials=4, jobs=jobs,
                                       policy=NO_RETRY)
    ]
    # "Interrupted" run: only the first two trials complete and journal.
    first = run_trials_supervised(
        _digest_trial, n_trials=2, jobs=jobs, policy=NO_RETRY, manifest=manifest
    )
    assert all(o.ok and not o.resumed for o in first)
    # Resume tops up the remaining trials; completed ones are not re-run.
    resumed = run_trials_supervised(
        _digest_trial, n_trials=4, jobs=jobs, policy=NO_RETRY, manifest=manifest
    )
    assert [o.resumed for o in resumed] == [True, True, False, False]
    assert [o.value for o in resumed] == reference  # per-flow digests identical


def test_resume_reattempts_failed_entries(tmp_path):
    manifest = tmp_path / "m.jsonl"
    dep = tmp_path / "dep"
    items = [(str(dep), 5)]
    first = supervised_map(_needs_file, items, jobs=1, policy=NO_RETRY,
                           manifest=manifest)
    assert first[0].status == STATUS_FAILED
    open(dep, "w").close()  # the missing dependency appears
    second = supervised_map(_needs_file, items, jobs=1, policy=NO_RETRY,
                            manifest=manifest)
    assert second[0].status == STATUS_OK and not second[0].resumed
    assert second[0].value == 10
    # The journal's latest record for the key is now the success.
    records = SweepManifest(manifest).load()
    assert [r["status"] for r in records.values()] == [STATUS_OK]


def test_manifest_lines_are_canonical_json(tmp_path):
    manifest = tmp_path / "m.jsonl"
    supervised_map(_double, [1, 2], jobs=1, policy=NO_RETRY, manifest=manifest)
    lines = manifest.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["schema"] == 2
        assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line


# ----------------------------------------------------------------------
# Trial-level wiring
# ----------------------------------------------------------------------
def test_trial_payload_keys_distinguish_seeds():
    a = trial_payload(_digest_trial, 1)
    b = trial_payload(_digest_trial, 2)
    assert a != b
    assert a["experiment"].endswith("_digest_trial")


def test_run_trials_with_manifest_excludes_failures(tmp_path):
    summary = run_trials(
        _half_or_fail, n_trials=4, base_seed=1, jobs=1, policy=NO_RETRY,
        manifest=tmp_path / "m.jsonl",
    )
    assert summary.n == 3  # seed 3 failed and was excluded
    assert summary.minimum == 0.5
    assert summary.maximum == 2.0


def test_run_trials_unsupervised_path_unchanged():
    with pytest.raises(ValueError):
        run_trials(_half_or_fail, n_trials=4, base_seed=1, jobs=1)


# ----------------------------------------------------------------------
# The Fig-8 matrix as a supervised sweep
# ----------------------------------------------------------------------
def test_run_matrix_small_and_resumable(tmp_path):
    manifest = tmp_path / "matrix.jsonl"
    configs = config_matrix((10.0,), (20.0,), (1.0,))
    assert len(configs) == 1
    outcomes = run_matrix(
        "cubic", "proteus-s", configs=configs, n_trials=2, duration_s=2.0,
        jobs=1, policy=NO_RETRY, manifest=manifest,
    )
    assert len(outcomes) == 2
    assert all(o.ok for o in outcomes)
    for outcome in outcomes:
        assert set(outcome.value) == {
            "primary_solo_mbps",
            "primary_with_scavenger_mbps",
            "scavenger_mbps",
            "primary_throughput_ratio",
            "utilization",
            "primary_rtt_ratio_95th",
        }
    again = run_matrix(
        "cubic", "proteus-s", configs=configs, n_trials=2, duration_s=2.0,
        jobs=1, policy=NO_RETRY, manifest=manifest,
    )
    assert all(o.resumed for o in again)
    assert [o.value for o in again] == [o.value for o in outcomes]


def test_summarize_outcomes_counts():
    outcomes = [
        TrialOutcome(status=STATUS_OK, key="a", resumed=True),
        TrialOutcome(status=STATUS_FAILED, key="b"),
        TrialOutcome(status=STATUS_CRASHED, key="c"),
    ]
    counts = summarize_outcomes(outcomes)
    assert counts["total"] == 3
    assert counts[STATUS_OK] == 1
    assert counts[STATUS_FAILED] == 1
    assert counts[STATUS_CRASHED] == 1
    assert counts["resumed"] == 1


# ----------------------------------------------------------------------
# Runner watchdog passthrough
# ----------------------------------------------------------------------
def test_run_flows_passes_watchdog_budget_through():
    with pytest.raises(SimBudgetExceeded):
        run_flows([FlowSpec("cubic")], _LINK, duration_s=5.0, seed=1, max_events=50)
