"""Tests for the process-pool experiment executor."""

import os
import threading
import time

import pytest

from repro.harness import FlowSpec, LinkConfig, run_flows, run_pair
from repro.harness import parallel as parallel_mod
from repro.harness import runner as runner_mod
from repro.harness import supervise as supervise_mod
from repro.harness.cache import enable_cache, reset_cache_state
from repro.harness.parallel import (
    ParallelCallError,
    ParallelExecutor,
    call_repr,
    default_jobs,
    dispatch_round,
    pmap,
)
from repro.harness.supervise import supervised_map


def _square(x: int) -> int:  # module-level: picklable for real workers
    return x * x


def _affine(a: int, b: int) -> int:
    return 10 * a + b


def test_default_jobs_reads_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3


def test_default_jobs_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() >= 1


@pytest.mark.parametrize("raw", ["0", "-2", "four"])
def test_default_jobs_rejects_bad_env(monkeypatch, raw):
    monkeypatch.setenv("REPRO_JOBS", raw)
    with pytest.raises(ValueError):
        default_jobs()


def test_map_serial_matches_comprehension():
    assert ParallelExecutor(jobs=1).map(_square, range(6)) == [
        _square(i) for i in range(6)
    ]


def test_map_parallel_preserves_input_order():
    # 4 workers on arbitrarily many cores: results must come back ordered
    # by input position, not completion time.
    assert ParallelExecutor(jobs=4).map(_square, range(12)) == [
        _square(i) for i in range(12)
    ]


def test_map_unpicklable_fn_falls_back_to_serial():
    calls = []

    def closure(x):  # closures cannot cross a process boundary
        calls.append(x)
        return -x

    assert ParallelExecutor(jobs=4).map(closure, [1, 2, 3]) == [-1, -2, -3]
    # The fallback ran in-process: side effects are visible here.
    assert calls == [1, 2, 3]


def test_map_single_item_stays_in_process():
    seen = []

    def record(x):
        seen.append(x)
        return x

    assert ParallelExecutor(jobs=8).map(record, [42]) == [42]
    assert seen == [42]


def test_run_all_dispatches_heterogeneous_calls():
    calls = [(_affine, (1, 2)), (_affine, (3, 4)), (_square, (5,))]
    assert ParallelExecutor(jobs=1).run_all(calls) == [12, 34, 25]
    assert ParallelExecutor(jobs=3).run_all(calls) == [12, 34, 25]


def test_pmap_convenience():
    assert pmap(_square, [2, 3], jobs=1) == [4, 9]


def test_worker_exception_propagates():
    with pytest.raises(ZeroDivisionError):
        ParallelExecutor(jobs=2).map(_reciprocal, [1, 0])


def _reciprocal(x: int) -> float:
    return 1.0 / x


def _leave_marker(item) -> None:
    directory, index = item
    if index == 0:
        raise ZeroDivisionError("item 0")
    time.sleep(0.05)
    open(os.path.join(directory, str(index)), "w").close()


def test_map_fails_fast(tmp_path):
    # The first item's exception must not wait for the sweep behind it:
    # calls that have not started when it surfaces are cancelled.
    items = [(str(tmp_path), index) for index in range(21)]
    with pytest.raises(ZeroDivisionError):
        pmap(_leave_marker, items, jobs=2)
    assert len(os.listdir(tmp_path)) < 10


def _take_lock_free(item) -> int:
    # Works whether the item is an int or an (unpicklable) Lock.
    return 1 if isinstance(item, int) else 2


def test_map_midstream_unpicklable_item_computed_in_process():
    # First item picklable -> pool path engages; the Lock deeper in the
    # stream cannot cross the boundary and is computed in-process.
    items = [1, threading.Lock(), 3]
    assert ParallelExecutor(jobs=2).map(_take_lock_free, items) == [1, 2, 1]


def test_map_unpicklable_first_item_falls_back_to_serial():
    items = [threading.Lock(), 1]
    assert ParallelExecutor(jobs=2).map(_take_lock_free, items) == [2, 1]


def test_run_all_wraps_worker_exception_with_attribution():
    calls = [(_affine, (1, 2)), (_reciprocal, (0,)), (_square, (5,))]
    with pytest.raises(ParallelCallError) as info:
        ParallelExecutor(jobs=3).run_all(calls)
    assert info.value.index == 1
    assert "_reciprocal(0)" in str(info.value)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_run_all_serial_path_raises_unwrapped():
    # jobs=1 keeps the original traceback, which already reaches the
    # call site — no wrapper needed there.
    with pytest.raises(ZeroDivisionError):
        ParallelExecutor(jobs=1).run_all([(_reciprocal, (0,)), (_square, (2,))])


def test_run_all_unpicklable_call_runs_in_process():
    lock = threading.Lock()
    calls = [(_affine, (1, 2)), (_take_lock_free, (lock,))]
    assert ParallelExecutor(jobs=2).run_all(calls) == [12, 2]


def test_call_repr_names_function_and_args():
    assert call_repr(_affine, (1, "x")) == "_affine(1, 'x')"


# ----------------------------------------------------------------------
# The cached prefix: with a cache active, the pool carries only misses
# ----------------------------------------------------------------------
SHORT = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_kb=50.0)


def _short_run(seed: int) -> str:
    result = run_flows([FlowSpec("cubic")], SHORT, duration_s=0.5, seed=seed)
    return result.throughput_mbps(0).hex()


def _short_pair(item: tuple[str, int]) -> float:
    scavenger, seed = item
    return run_pair("cubic", scavenger, SHORT, duration_s=0.6, seed=seed).utilization


def _short_run_then_raise(seed: int) -> str:
    _short_run(seed)
    raise KeyError(f"after the run of seed {seed}")


@pytest.fixture
def cache(tmp_path):
    cache = enable_cache(tmp_path / "cache")
    yield cache
    reset_cache_state()


@pytest.fixture
def rounds(monkeypatch):
    """Every batch handed to ``dispatch_round`` in this process."""
    seen = []

    def recording(fn, items, jobs):
        seen.append(list(items))
        return dispatch_round(fn, items, jobs)

    monkeypatch.setattr(parallel_mod, "dispatch_round", recording)
    monkeypatch.setattr(supervise_mod, "dispatch_round", recording)
    return seen


def test_warm_pmap_starts_no_pool(cache, rounds):
    seeds = [1, 2, 3]
    cold = pmap(_short_run, seeds, jobs=1)
    assert pmap(_short_run, seeds, jobs=2) == cold
    assert rounds == []
    assert cache.hits == len(seeds)
    assert not cache.replay_only


def test_warm_run_pair_starts_no_pool(cache, rounds):
    serial = run_pair("cubic", "proteus-s", SHORT, duration_s=0.6, seed=4, jobs=1)
    assert run_pair("cubic", "proteus-s", SHORT, duration_s=0.6, seed=4, jobs=2) == serial
    assert rounds == []


def test_cold_batch_goes_to_the_pool_whole(cache, rounds, monkeypatch):
    built = []

    class CountingSimulator(runner_mod.Simulator):
        def __init__(self, *args, **kwargs):
            built.append(os.getpid())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "Simulator", CountingSimulator)
    seeds = [5, 6, 7]
    values = pmap(_short_run, seeds, jobs=2)
    assert rounds == [seeds]
    assert os.getpid() not in built  # the caller only looked the first one up
    reset_cache_state()
    assert values == pmap(_short_run, seeds, jobs=1)


def test_cached_prefix_sends_exactly_the_suffix(cache, rounds):
    pmap(_short_run, [1, 2], jobs=1)
    seeds = [1, 2, 8, 9]
    values = pmap(_short_run, seeds, jobs=2)
    assert rounds == [[8, 9]]
    assert values == pmap(_short_run, seeds, jobs=1)


def test_function_that_never_reads_the_cache_ends_the_prefix(cache, rounds):
    assert pmap(_square, range(5), jobs=2) == [_square(i) for i in range(5)]
    assert rounds == [[1, 2, 3, 4]]


def test_nested_run_pair_sends_its_outer_item_to_the_pool(cache, rounds, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    _short_pair(("proteus-s", 1))
    rounds.clear()
    # The second pair shares the first's solo baseline (a hit), but its
    # joint run is a miss: the whole outer item goes to the pool.
    items = [("proteus-s", 1), ("cubic", 1)]
    values = pmap(_short_pair, items, jobs=2)
    assert rounds == [[("cubic", 1)]]
    assert values == pmap(_short_pair, items, jobs=1)


def test_cached_item_that_raises_reraises_unchanged(cache, rounds):
    with pytest.raises(KeyError):
        _short_run_then_raise(3)  # stores the run, then raises
    with pytest.raises(KeyError, match="seed 3"):
        pmap(_short_run_then_raise, [3, 4], jobs=2)
    with pytest.raises(KeyError, match="seed 3"):
        ParallelExecutor(jobs=2).run_all([(_short_run_then_raise, (3,)), (_square, (2,))])
    assert rounds == []
    assert not cache.replay_only


def test_warm_supervised_map_dispatches_every_attempt(cache, rounds):
    seeds = [1, 2, 3]
    cold = pmap(_short_run, seeds, jobs=1)
    outcomes = supervised_map(_short_run, seeds, jobs=2)
    assert [o.value for o in outcomes] == cold
    assert [[task[1] for task in batch] for batch in rounds] == [seeds]
