"""Process-pool experiment execution.

The paper's evaluation is a large scenario x seed matrix ("the mean of at
least 10 trials in each scenario", 22 figures), and every seeded
simulation is independent and deterministic.  That makes the figure suite
embarrassingly parallel: :class:`ParallelExecutor` fans experiment calls
across worker processes and returns results in *submission order* (ordered
by seed, not by completion), so parallel execution is byte-identical to
serial — the determinism digest gate in ``tests/test_determinism.py``
asserts exactly that.

Concurrency is controlled by the ``REPRO_JOBS`` environment variable
(default ``os.cpu_count()``); ``REPRO_JOBS=1`` is an *exact* serial
fallback — no pool, no pickling, same call stack.

Experiment callables that cannot be pickled (lambdas, closures, bound
locals — common in tests) silently fall back to the serial path rather
than failing: parallelism is an optimisation, never a behaviour change.
The picklability probe is cheap — only ``fn`` and the *first* item are
test-pickled up front; an item deeper in the stream that turns out
unpicklable is computed in-process on its own (a per-item fallback)
instead of silently serialising the whole sweep or aborting it.
Worker processes run with ``REPRO_JOBS=1`` so nested harness calls
(e.g. :func:`repro.harness.runner.run_pair` inside a trial) never fork a
pool-per-worker fan-out bomb.

:func:`dispatch_round` is the one place in the package that builds a
process pool and reads a future (the ``no-bare-subprocess-result`` lint
rule exempts this file only): a fresh pool per batch, each item's *value
or exception* handed back in submission order.  Three policies sit on
it: :meth:`ParallelExecutor.map` re-raises a worker exception unchanged
(as the serial comprehension would); :meth:`ParallelExecutor.run_all` —
whose calls are heterogeneous — wraps it in :class:`ParallelCallError`
naming the call; :func:`repro.harness.supervise.supervised_map` records
it, retries and journals.  The two that raise stop at the first failure,
which cancels every call that has not started.

The pool carries only work that simulates.  With a result cache active,
``map`` and ``run_all`` first run the batch's items here, in order, with
the cache replay-only (:attr:`~repro.harness.cache.ResultCache.replay_only`),
for as long as the cache answers them.  The cached prefix ends at the
first item that raises :class:`~repro.harness.cache.NotCached` (it and
every later item go to the pool untouched) or at the first item that
finishes without a cache hit (its value is kept; the rest go to the
pool).  A batch cached from start to end starts no pool.  A pool door
reached inside a replay runs its calls serially, so its ``NotCached``
belongs to the outer item, and :func:`dispatch_round` refuses to fork
while the flag is set.  An exception a replayed item raises re-raises
unchanged, as on the serial path.  ``supervised_map`` never replays:
its crash isolation needs every attempt in a worker.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from typing import Any, TypeVar

from ..obs import active_tracer
from .cache import NotCached, ResultCache, active_cache

T = TypeVar("T")
R = TypeVar("R")

_FORCE_SERIAL_ENV = {"REPRO_JOBS": "1"}


class ParallelCallError(RuntimeError):
    """A pool-dispatched call failed; names *which* call.

    A worker exception re-raised in the driver carries a traceback that
    ends inside the pool plumbing — useless for telling apart the forty
    identical-looking calls of a sweep.  This wrapper carries the
    submission index and the call's repr; the original exception is
    chained as ``__cause__``.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def call_repr(fn: Callable[..., Any], args: tuple) -> str:
    """``module.qualname(arg, ...)`` for failure attribution."""
    name = getattr(fn, "__qualname__", None) or repr(fn)
    inner = ", ".join(repr(a) for a in args)
    return f"{name}({inner})"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default: ``os.cpu_count()``)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from exc
        if jobs < 1:
            raise ValueError(f"REPRO_JOBS must be >= 1, got {jobs}")
        return jobs
    return os.cpu_count() or 1


def _is_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:  # pickle raises a zoo: PicklingError, TypeError, ...
        return False
    return True


def pool_helps(jobs: int, fn: Callable[..., Any], items: Sequence[Any]) -> bool:
    """Whether a batch is worth a pool and can cross into one.

    Only ``fn`` and the *first* item are test-pickled (the whole batch
    would double every sweep's serialisation cost); a later item that
    cannot cross shows up as its own future's exception.  A process-global
    tracer pins the batch to this process: a forked worker would trace
    into its own copy and throw it away, so what is recorded would
    depend on ``jobs``.
    """
    wanted = jobs > 1 and len(items) > 1 and active_tracer() is None
    return wanted and _is_picklable(fn) and _is_picklable(items[0])


def _replaying() -> bool:
    """Whether the active cache is replay-only (a cached prefix is running)."""
    cache = active_cache()
    return cache is not None and cache.replay_only


def _replay_prefix(fn: Callable[[T], R], items: Sequence[T], cache: ResultCache) -> list[R]:
    """``fn`` over the leading items the cache answers, in this process.

    Stops before the first item that raises :class:`NotCached` and after
    the first one that finishes without a cache hit.  The flag is
    cleared on the way out, before any pool can fork.
    """
    values: list[R] = []
    cache.replay_only = True
    try:
        for item in items:
            hits = cache.hits
            try:
                values.append(fn(item))
            except NotCached:
                break
            if cache.hits == hits:
                break  # fn never read the cache: the rest is work
    finally:
        cache.replay_only = False
    return values


def _init_worker() -> None:  # pragma: no cover - runs in the child
    """Pin workers to serial so nested harness calls never fork again."""
    os.environ.update(_FORCE_SERIAL_ENV)


def dispatch_round(
    fn: Callable[[T], R], items: Sequence[T], jobs: int
) -> Iterator[tuple[R | None, Exception | None]]:
    """Run ``fn`` over ``items`` on a fresh pool; yield ``(value, exception)``.

    One pair per item, in submission order regardless of which worker
    finishes first.  The exception is whatever the future holds: the
    worker's own, a pickling error for an item that could not cross the
    process boundary, or ``BrokenProcessPool`` once a worker has died —
    which fails every unfinished future at once, and every item not yet
    submitted with it.

    Use under :func:`contextlib.closing`: closing the generator early
    cancels the calls that have not started, so a consumer that stops at
    the first failure does not wait for the rest of the batch.

    Inside a replay it raises :class:`NotCached` instead of forking:
    workers must never inherit a replay-only cache, and the calls would
    simulate.
    """
    if _replaying():
        raise NotCached("a process pool was asked for inside a replay")
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), initializer=_init_worker
    )
    try:
        futures = []
        broken: Exception | None = None
        try:
            for item in items:
                futures.append(pool.submit(fn, item))
        except BrokenProcessPool as exc:
            broken = exc  # a worker died while the batch was still going in
        for future in futures:
            try:
                value = future.result()
            except Exception as exc:
                yield None, exc
            else:
                yield value, None
        for _ in items[len(futures):]:
            yield None, broken
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _apply(call: tuple[Callable[..., R], tuple]) -> R:
    """``fn(*args)`` for one :meth:`ParallelExecutor.run_all` pair
    (module-level so it pickles into workers)."""
    fn, args = call
    return fn(*args)


class ParallelExecutor:
    """Fans independent experiment calls across a process pool.

    Args:
        jobs: Worker count; ``None`` reads ``REPRO_JOBS`` /
            ``os.cpu_count()``.  ``1`` short-circuits to exact serial
            execution in the calling process.
    """

    def __init__(self, jobs: int | None = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))

    def _ordered(self, fn: Callable[[T], R], items: list[T], calls: bool) -> list[R]:
        """``[fn(x) for x in items]``, over the pool when it can help.

        With a cache active, the cached prefix runs here first (see the
        module docstring) and only the rest goes to the pool.  The first
        failing item ends the batch.  Its exception re-raises unchanged,
        unless a worker raised it and the items are the ``(fn, args)``
        pairs of :meth:`run_all` (``calls``): then it is attributed to
        its pair.
        """
        if _replaying() or not pool_helps(self.jobs, fn, items):
            return [fn(item) for item in items]
        cache = active_cache()
        results = [] if cache is None else _replay_prefix(fn, items, cache)
        rest = items[len(results):]
        if not rest:
            return results
        with closing(dispatch_round(fn, rest, self.jobs)) as outcomes:
            for index, (item, (value, exc)) in enumerate(zip(rest, outcomes), len(results)):
                if exc is None:
                    results.append(value)
                elif not _is_picklable(item):
                    results.append(fn(item))  # it never reached a worker
                elif calls:
                    raise ParallelCallError(
                        f"run_all call #{index} ({call_repr(*item)}) raised {exc!r}",
                        index=index,
                    ) from exc
                else:
                    raise exc
        return results

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``[fn(x) for x in items]`` with deterministic result order.

        Results are ordered by input position regardless of which worker
        finishes first.  Falls back to the serial comprehension when the
        pool would not help (one job, one item) or when ``fn``/``items``
        cannot cross a process boundary.  A worker exception re-raises
        unchanged, as the comprehension would raise it.
        """
        return self._ordered(fn, list(items), calls=False)

    def run_all(self, calls: Sequence[tuple[Callable[..., R], tuple]]) -> list[R]:
        """Run ``fn(*args)`` for each ``(fn, args)`` pair, ordered as given.

        The heterogeneous sibling of :meth:`map`, used to dispatch e.g. a
        solo baseline and its paired run concurrently.  A worker failure
        is re-raised as :class:`ParallelCallError` naming the call index
        and repr (original exception chained); the serial path re-raises
        unchanged because its traceback already reaches the call site.
        """
        return self._ordered(_apply, list(calls), calls=True)


def pmap(fn: Callable[[T], R], items: Iterable[T], jobs: int | None = None) -> list[R]:
    """Module-level convenience for ``ParallelExecutor(jobs).map``."""
    return ParallelExecutor(jobs).map(fn, items)
