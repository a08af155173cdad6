"""Fault-tolerant, resumable trial execution.

The paper's evaluation is a large scenario x seed matrix ("the mean of
at least 10 trials in each scenario", 22 figures), and pathological
simulations — outages, Gilbert-Elliott burst loss, adversarial genomes —
are a first-class workload.  Running thousands of such trials unattended
means individual trials *will* misbehave: a protocol bug livelocks the
engine, a worker process dies, a poisoned input raises.  None of those
may abort the sweep or throw away a completed trial.

Three layers see to that:

* **Supervision** — every trial ends in a :class:`TrialOutcome`
  (``ok`` / ``failed`` / ``timed-out`` / ``crashed-worker``) carrying the
  seed, the canonical config payload, the error repr and traceback, and
  the attempt count.  A failure is a *record*, not an abort.
* **Retry with crash recovery** — :func:`supervised_map` works in
  rounds of one :func:`_attempt` per unfinished item.  ``_attempt`` runs
  wherever it is called — in a pool worker
  (:func:`repro.harness.parallel.dispatch_round`) or, for ``jobs=1`` and
  unpicklable work, in the driver — so the traceback and flight-recorder
  ring are taken next to the failure and ``retries=N`` means ``N+1``
  executions for every ``jobs``.  Rounds are separated by a capped
  exponential backoff (seeded jitter via :class:`repro.core.rng.Rng` —
  no wall-clock reads in the decision path).  A dead worker (SIGKILL,
  ``os._exit``) fails every unfinished call of its pool; the calls that
  can have been executing are re-run alone in a one-worker pool, and an
  item that kills that too is a ``crashed-worker``, never run in the
  driver.
* **Checkpoint/resume** — outcomes are journaled to a
  :class:`SweepManifest`: an append-only JSONL file keyed by the result
  cache's content address (:func:`repro.harness.cache.payload_key`,
  plain JSON, exact).  Re-running a sweep against an existing manifest
  skips every ``ok`` entry and re-attempts only failures, so a killed
  two-hour figure run resumes as a two-minute top-up.  Torn trailing
  lines (the driver was killed mid-append) are skipped on load; each
  append is a single flushed+fsynced write so at most the final line
  can be torn.

Retry depth defaults to the ``REPRO_TRIAL_RETRIES`` environment
variable (see :class:`RetryPolicy`); engine watchdog budgets
(``REPRO_MAX_EVENTS``, :class:`repro.sim.engine.SimBudgetExceeded`)
turn livelocks into ``timed-out`` outcomes.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import json
import os
import time
import traceback as traceback_mod
from collections.abc import Callable, Iterable, Sequence
from contextlib import closing
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from ..core.rng import Rng
from ..obs import RingBufferTracer, tracing
from ..sim.engine import SimBudgetExceeded
from .cache import payload_key
from .parallel import default_jobs, dispatch_round, pool_helps

MANIFEST_SCHEMA = 2

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMED_OUT = "timed-out"
STATUS_CRASHED = "crashed-worker"


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def default_retries() -> int:
    """Retry count from ``REPRO_TRIAL_RETRIES`` (default 2)."""
    raw = os.environ.get("REPRO_TRIAL_RETRIES", "").strip()
    if not raw:
        return 2
    try:
        retries = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_TRIAL_RETRIES must be an integer, got {raw!r}"
        ) from exc
    if retries < 0:
        raise ValueError(f"REPRO_TRIAL_RETRIES must be >= 0, got {retries}")
    return retries


@dataclass(frozen=True)
class RetryPolicy:
    """How failed trials are retried.

    ``retries`` is the number of *re*-attempts after the first try
    (``None`` reads ``REPRO_TRIAL_RETRIES``, default 2).  Backoff before
    re-attempt ``k`` is ``min(cap, base * factor**(k-1))`` scaled by a
    seeded jitter draw in ``[1-jitter, 1+jitter]`` — fully deterministic
    given (seed, item index, attempt), with no wall-clock read anywhere
    in the decision path (the host clock is only *slept on*, never
    branched on).

    An *event*-budget watchdog trip is a pure function of the trial's
    input, so it is final on its first attempt; everything else — an
    exception, a host-dependent wall-budget trip, a dead worker — is
    retried until ``max_attempts()`` executions have been charged.

    ``trace_ring`` (when > 0) attaches a
    :class:`~repro.obs.RingBufferTracer` of that capacity around every
    attempt, in the process that executes it, so a failing or timed-out
    trial's outcome carries the last N trace events before the failure
    (the flight recorder — see ``docs/OBSERVABILITY.md``).
    """

    retries: int | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0
    jitter_fraction: float = 0.25
    seed: int = 0
    trace_ring: int = 0

    def max_attempts(self) -> int:
        return 1 + (default_retries() if self.retries is None else self.retries)

    def backoff_s(self, attempt: int, index: int) -> float:
        """Deterministic pause before re-attempting after ``attempt`` failures."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter_fraction <= 0:
            return base
        rng = Rng(f"supervise-backoff:{self.seed}:{index}:{attempt}")
        return base * rng.uniform(1.0 - self.jitter_fraction, 1.0 + self.jitter_fraction)


# ----------------------------------------------------------------------
# Trial outcomes
# ----------------------------------------------------------------------
@dataclass
class TrialOutcome:
    """The supervised result of one trial — success or structured failure.

    ``status`` is one of ``ok``, ``failed`` (the experiment raised),
    ``timed-out`` (the engine watchdog tripped —
    :class:`~repro.sim.engine.SimBudgetExceeded`), or ``crashed-worker``
    (the worker process died).  ``payload`` is the canonical config
    payload the manifest key was derived from; ``resumed`` marks an
    outcome rebuilt from a manifest rather than recomputed.  ``trace``
    holds the last trace events before a failure when the policy's
    ``trace_ring`` flight recorder was on (event dicts in emit order).
    """

    status: str
    key: str
    value: Any = None
    seed: int | None = None
    payload: dict | None = None
    error: str | None = None
    traceback: str | None = None
    attempts: int = 0
    resumed: bool = False
    trace: list[dict] | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_record(self) -> dict:
        """The manifest line: plain JSON, which round-trips every float."""
        return {
            "schema": MANIFEST_SCHEMA,
            "key": self.key,
            "status": self.status,
            "seed": self.seed,
            "payload": self.payload,
            "value": self.value,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "trace": self.trace,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TrialOutcome":
        return cls(
            status=record["status"],
            key=record["key"],
            value=record.get("value"),
            seed=record.get("seed"),
            payload=record.get("payload"),
            error=record.get("error"),
            traceback=record.get("traceback"),
            attempts=record.get("attempts", 0),
            resumed=True,
            trace=record.get("trace"),
        )


def summarize_outcomes(outcomes: Iterable[TrialOutcome]) -> dict:
    """Counts by status plus how many were resumed from a manifest."""
    counts = {
        STATUS_OK: 0,
        STATUS_FAILED: 0,
        STATUS_TIMED_OUT: 0,
        STATUS_CRASHED: 0,
        "resumed": 0,
        "total": 0,
    }
    for outcome in outcomes:
        counts["total"] += 1
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
        if outcome.resumed:
            counts["resumed"] += 1
    return counts


# ----------------------------------------------------------------------
# The sweep manifest: append-only JSONL checkpoint
# ----------------------------------------------------------------------
class SweepManifest:
    """Append-only JSONL journal of :class:`TrialOutcome` records.

    One JSON object per line, keyed by the content-addressed trial key.
    Appends are a single flushed + fsynced write, so a killed driver can
    tear at most the final line; :meth:`load` skips unparseable lines
    (counted in ``torn_lines``) and lets later records win over earlier
    ones under the same key, so re-attempted failures supersede their
    old entries without rewriting the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.torn_lines = 0

    def load(self) -> dict[str, dict]:
        """Key -> latest record.  Missing file = empty manifest."""
        records: dict[str, dict] = {}
        self.torn_lines = 0
        try:
            text = self.path.read_text()
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.torn_lines += 1  # killed mid-append: skip the torn line
                continue
            if (
                not isinstance(record, dict)
                or record.get("schema") != MANIFEST_SCHEMA
                or not isinstance(record.get("key"), str)
            ):
                self.torn_lines += 1
                continue
            records[record["key"]] = record
        return records

    def append(self, outcome: TrialOutcome) -> None:
        line = json.dumps(outcome.to_record(), sort_keys=True, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:
            # A run killed mid-append can leave a torn line with no
            # newline; terminate it so this record is not swallowed
            # into it (the torn fragment then parses as its own bad
            # line and is skipped by load()).
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write((line + "\n").encode())
            handle.flush()
            os.fsync(handle.fileno())


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------
def _qualname(fn: Callable) -> str:
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}.{name}"


def trial_payload(experiment: Callable, seed: int, extra: dict | None = None) -> dict:
    """Canonical manifest payload for one ``experiment(seed)`` trial.

    The manifest key is :func:`payload_key` over this payload — the same
    derivation as the result cache, so it embeds the source-tree digest:
    editing the simulator invalidates old manifests wholesale (a resume
    after a source change correctly re-runs everything).
    """
    payload = {
        "kind": "supervised_trial",
        "experiment": _qualname(experiment),
        "seed": seed,
    }
    if extra:
        payload.update(extra)
    return payload


def _not_plain_json(value: Any, path: str = "value") -> str | None:
    """Where ``value`` stops being plain JSON, or None when it is all
    plain JSON: dicts with string keys, lists, str, int, float, bool,
    None.  Only such a value comes back from a manifest unchanged."""
    if value is None or isinstance(value, (str, int, float)):
        return None
    if isinstance(value, list):
        for i, item in enumerate(value):
            fault = _not_plain_json(item, f"{path}[{i}]")
            if fault is not None:
                return fault
        return None
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                return f"{path} has key {key!r} of type {type(key).__name__}"
            fault = _not_plain_json(item, f"{path}[{key!r}]")
            if fault is not None:
                return fault
        return None
    return f"{path} is of type {type(value).__name__}"


def _attempt(task: tuple[Callable[[Any], Any], Any, int]) -> tuple:
    """Execute ``fn(item)`` once, in whichever process this is called in.

    ``task`` is ``(fn, item, trace_ring)``; the answer is the plain,
    picklable ``(status, value, error, traceback, trace, final)``.  The
    traceback and the flight-recorder ring (``trace_ring`` > 0) are taken
    here, next to the failure.  ``final`` says another attempt cannot end
    differently: success, or an *event* budget — which trips on the same
    event every time, unlike a wall budget.
    """
    fn, item, trace_ring = task
    ring = RingBufferTracer(capacity=trace_ring) if trace_ring > 0 else None
    try:
        if ring is None:
            value = fn(item)
        else:
            with tracing(ring):
                value = fn(item)
    except Exception as exc:
        timed_out = isinstance(exc, SimBudgetExceeded)
        return (
            STATUS_TIMED_OUT if timed_out else STATUS_FAILED,
            None,
            repr(exc),
            traceback_mod.format_exc(),
            None if ring is None else ring.snapshot(),
            timed_out and exc.wall_s is None,
        )
    return STATUS_OK, value, None, None, None, True


def supervised_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    payloads: Sequence[dict] | None = None,
    seeds: Sequence[int] | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    manifest: str | Path | SweepManifest | None = None,
    resume_statuses: Sequence[str] = (STATUS_OK,),
) -> list[TrialOutcome]:
    """``fn`` over ``items`` with supervision, retries, and checkpointing.

    Returns one :class:`TrialOutcome` per item, in input order — never
    raises for a failing item.  ``payloads`` (one canonical dict per
    item) derive the content-addressed keys; when omitted, a generic
    payload from the function qualname and item index is used (resume
    still works, but renaming ``fn`` orphans old manifest entries).

    With ``manifest`` set, every fresh outcome is journaled and items
    whose key is already recorded with a status in ``resume_statuses``
    are *not* re-run: their outcomes are rebuilt from the journal
    (``resumed=True``, bit-identical values).  A fresh value that is not
    plain JSON (say a tuple, or a dict with an int key) would not come
    back as it went in, so it is settled as a final ``failed`` outcome
    that names where it stops being JSON.  The default treats only
    ``ok`` as final — failed entries are re-attempted, which is right
    for transiently-failing sweeps.  Callers whose workload is
    *deterministic* (the adversary search) widen this to ``failed`` and
    ``timed-out`` as well, so a recorded deterministic failure is not
    pointlessly retried on resume; ``crashed-worker`` should stay out of
    the set — a dead worker says nothing about the workload.

    Execution: every round gives each unfinished item one
    :func:`_attempt` — in pool workers (``jobs``/``REPRO_JOBS``) when the
    workload pickles, in the driver otherwise.  An exception, a watchdog
    trip or a dead worker marks only the affected item; it goes into the
    next round until :class:`RetryPolicy` says it is final.
    """
    materialized = list(items)
    n = len(materialized)
    if seeds is not None:
        seeds = list(seeds)
        if len(seeds) != n:
            raise ValueError(f"{len(seeds)} seeds for {n} items")
    if payloads is None:
        payloads = [
            {
                "kind": "supervised_map",
                "fn": _qualname(fn),
                "index": i,
                "seed": None if seeds is None else seeds[i],
            }
            for i in range(n)
        ]
    else:
        payloads = list(payloads)
        if len(payloads) != n:
            raise ValueError(f"{len(payloads)} payloads for {n} items")
    seed_list = seeds if seeds is not None else [p.get("seed") for p in payloads]
    keys = [payload_key(payload) for payload in payloads]
    policy = policy or RetryPolicy()
    max_attempts = policy.max_attempts()
    journal = (
        manifest
        if isinstance(manifest, SweepManifest) or manifest is None
        else SweepManifest(manifest)
    )

    outcomes: list[TrialOutcome | None] = [None] * n
    pending: list[int] = []
    existing = {} if journal is None else journal.load()
    for i, key in enumerate(keys):
        record = existing.get(key)
        if record is not None and record.get("status") in resume_statuses:
            try:
                outcomes[i] = TrialOutcome.from_record(record)
                continue
            except (KeyError, ValueError, TypeError):
                pass  # corrupt record: treat as not completed
        pending.append(i)

    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    use_pool = pool_helps(jobs, fn, [materialized[i] for i in pending])
    tasks = {i: (fn, materialized[i], policy.trace_ring) for i in pending}
    attempts = dict.fromkeys(pending, 0)

    def settle(i: int, answer: tuple) -> None:
        status, value, error, tb, trace, final = answer
        if journal is not None and status == STATUS_OK:
            fault = _not_plain_json(value)
            if fault is not None:
                # The journal could not write it, or would give back
                # another value on resume: a final failure instead.
                status, value, final = STATUS_FAILED, None, True
                error = f"not plain JSON, cannot be journaled: {fault}"
        attempts[i] += 1
        if final or attempts[i] >= max_attempts:
            outcomes[i] = TrialOutcome(
                status=status,
                key=keys[i],
                value=value,
                seed=seed_list[i],
                payload=payloads[i],
                error=error,
                traceback=tb,
                attempts=attempts[i],
                trace=trace,
            )
            if journal is not None:
                journal.append(outcomes[i])

    def run(batch: list[int], workers: int) -> list[int]:
        """Attempt each item of ``batch`` once and settle the answers as
        they arrive; returns the items a broken pool left undecided."""
        if not use_pool:
            for i in batch:
                settle(i, _attempt(tasks[i]))
            return []
        from concurrent.futures.process import BrokenProcessPool  # with the pool only

        undecided = []
        answers = dispatch_round(_attempt, [tasks[i] for i in batch], workers)
        with closing(answers):
            for i, (answer, exc) in zip(batch, answers):
                if exc is None:
                    settle(i, answer)
                elif not isinstance(exc, BrokenProcessPool):
                    # _attempt raises nothing: the item or its answer did
                    # not pickle.  This item alone runs in the driver.
                    settle(i, _attempt(tasks[i]))
                elif len(batch) > 1:
                    undecided.append(i)
                else:
                    settle(i, (STATUS_CRASHED, None, repr(exc), None, None, False))
        return undecided

    todo, rounds = pending, 0
    while todo:
        if rounds:
            # One deterministic, jittered pause per retry round.
            time.sleep(policy.backoff_s(rounds, todo[0]))
        rounds += 1
        # A dead worker breaks every unfinished future of its pool, which
        # proves nothing about an item in shared company.  Workers take
        # calls in submission order, so those that can have been executing
        # are the first ``jobs`` undecided ones: each runs again alone in a
        # one-worker pool, where a break is its own.  The rest never
        # started and go into the next round.
        for i in run(todo, jobs)[:jobs]:
            attempts[i] += 1
            run([i], 1)
        todo = [i for i in todo if outcomes[i] is None]
    return [outcome for outcome in outcomes if outcome is not None]


# ----------------------------------------------------------------------
# The Fig-8 robustness matrix as a supervised, resumable sweep
# ----------------------------------------------------------------------
def _pair_cell(item: dict) -> dict[str, float]:
    """One (config, seed) cell of the Fig-8 matrix — module-level so it
    pickles into pool workers.  ``jobs=1`` keeps the nested ``run_pair``
    dispatch serial inside a worker."""
    from .runner import run_pair
    from .scenarios import LinkConfig

    config = LinkConfig(**item["config"])
    pair = run_pair(
        item["primary"],
        item["scavenger"],
        config,
        duration_s=item["duration_s"],
        seed=item["seed"],
        jobs=1,
    )
    return asdict(pair)


def run_matrix(
    primary: str = "cubic",
    scavenger: str = "proteus-s",
    configs: Sequence[Any] | None = None,
    n_trials: int = 1,
    base_seed: int = 1,
    duration_s: float = 10.0,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    manifest: str | Path | SweepManifest | None = None,
) -> list[TrialOutcome]:
    """The Fig-8 scenario x seed matrix as a supervised, resumable sweep.

    Each cell is one :func:`~repro.harness.runner.run_pair` call for one
    ``(LinkConfig, seed)``; the outcome value is the ``PairResult`` as a
    dict of floats.  With ``manifest`` set the sweep checkpoints every
    cell and ``repro sweep --resume <manifest>`` tops up an interrupted
    run.  ``configs`` defaults to the full 180-configuration
    :func:`~repro.harness.scenarios.config_matrix`.
    """
    from .scenarios import config_matrix

    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if configs is None:
        configs = config_matrix()
    items: list[dict] = []
    payloads: list[dict] = []
    seeds: list[int] = []
    for config in configs:
        for trial in range(n_trials):
            seed = base_seed + trial
            item = {
                "primary": primary,
                "scavenger": scavenger,
                "config": config.to_dict(),
                "duration_s": duration_s,
                "seed": seed,
            }
            items.append(item)
            payloads.append({"kind": "fig8_pair_cell", **item})
            seeds.append(seed)
    return supervised_map(
        _pair_cell,
        items,
        payloads=payloads,
        seeds=seeds,
        jobs=jobs,
        policy=policy,
        manifest=manifest,
    )
