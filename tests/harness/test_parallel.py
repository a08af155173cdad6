"""Tests for the process-pool experiment executor."""

import os
import threading
import time

import pytest

from repro.harness.parallel import (
    ParallelCallError,
    ParallelExecutor,
    call_repr,
    default_jobs,
    pmap,
)


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
