"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Everything in
the simulated network (links, senders, application agents) schedules
callbacks on a shared :class:`Simulator` instance.  Simulated time is a
float number of seconds.

The engine is deliberately minimal and allocation-light: a congestion
control experiment pushes millions of events through it, so the heap holds
plain ``(time, seq, fn, args, event)`` tuples and the hot path avoids any
indirection beyond one heap push/pop per event.  Two scheduling paths share
that heap:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle so callers can cancel pending timers (RTO timers,
  pacing ticks);
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_fast_at`
  skip the ``Event`` allocation entirely for fire-and-forget callbacks.
  Per-packet deliveries dominate the heap in a congestion-control run and
  are never cancelled, so the fast path removes one object allocation and
  one attribute-loaded comparison per packet.

``seq`` is unique per simulator, so tuple comparison never reaches the
callback and no ``__lt__`` dispatch happens during sifting.  One loop,
:meth:`Simulator.run`'s ``_drain``, fires the entries one per turn in
``(time, seq)`` order: same-time events fire in the order they were
scheduled, and an entry scheduled while others share its time queues
behind them.

Cancellation is lazy (the entry stays in the heap until popped), but the
simulator compacts the heap whenever cancelled events outnumber live ones,
so long-running workloads that arm-and-cancel timers at a high rate do not
leak memory.  Live-event accounting is O(1): ``pending()`` is maintained
as ``heap length - cancelled count`` on every push/pop/cancel/compact, and
the old O(n) scan survives only as a debug assertion under invariant
checking.

Optional runtime invariant checking (``check_invariants=True``, or the
``REPRO_CHECK_INVARIANTS=1`` environment variable) attaches a
:class:`repro.sim.invariants.InvariantChecker` that audits clock
monotonicity, per-link packet conservation, queue non-negativity, and RTT
sample bounds as the simulation runs.

:meth:`Simulator.run` also accepts **watchdog budgets**: ``max_events``
caps how many events a single ``run()`` call may fire (default from the
``REPRO_MAX_EVENTS`` environment variable) and ``max_wall_s`` caps its
host wall-clock time.  Exceeding either raises a catchable
:class:`SimBudgetExceeded` instead of spinning forever on e.g. a
zero-dt self-rescheduling bug — the supervision layer
(:mod:`repro.harness.supervise`) maps that exception to a structured
``timed-out`` trial outcome.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import TYPE_CHECKING, Any, Callable

from ..core.tracepoint import tracepoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .invariants import InvariantChecker

RUN_BEGIN = tracepoint("sim.run.begin", "until_s", "max_events", "max_wall_s")
RUN_END = tracepoint("sim.run.end", "events_fired")
SCHEDULE_PAST = tracepoint("sim.schedule.past", "scheduled_s", "lag_s")
BUDGET_EVENTS = tracepoint("sim.budget.exceeded", "budget", "events_fired", "max_events")
BUDGET_WALL = tracepoint("sim.budget.exceeded", "budget", "events_fired", "max_wall_s")

_COMPACT_MIN_HEAP = 64
"""Heap size below which compaction is not worth the heapify cost."""

_WALL_CHECK_EVENTS = 1024
"""Events between host-clock reads while a ``max_wall_s`` budget is armed."""

_NO_BUDGET = 1 << 62
"""Event count no run reaches: the unarmed watermark.  An int, so the
per-event ``fired >= check_at`` compare never mixes int and float."""


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class SimBudgetExceeded(SimulationError):
    """A :meth:`Simulator.run` call exceeded its event or wall-clock budget.

    Carries enough context for a supervisor to build an attributable
    trial record.  The exception crosses process boundaries intact
    (custom ``__reduce__``), so a pool worker that trips its watchdog
    surfaces as a structured ``timed-out`` outcome in the parent.
    """

    def __init__(
        self,
        message: str,
        events_fired: int = 0,
        max_events: "int | None" = None,
        wall_s: "float | None" = None,
        max_wall_s: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.events_fired = events_fired
        self.max_events = max_events
        self.wall_s = wall_s
        self.max_wall_s = max_wall_s

    def __reduce__(self):
        return (
            type(self),
            (
                self.args[0],
                self.events_fired,
                self.max_events,
                self.wall_s,
                self.max_wall_s,
            ),
        )


def env_max_events() -> "int | None":
    """Event budget from ``REPRO_MAX_EVENTS`` (empty/``0`` = unlimited).

    Parsed on every :meth:`Simulator.run` call — one environment read per
    run is noise next to the run itself, and it keeps tests free of
    cache-reset hooks.
    """
    raw = os.environ.get("REPRO_MAX_EVENTS", "").strip()
    if not raw or raw == "0":
        return None
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_MAX_EVENTS must be an integer, got {raw!r}") from exc
    if budget < 1:
        raise ValueError(f"REPRO_MAX_EVENTS must be >= 1 or 0 (unlimited), got {budget}")
    return budget


class Event:
    """A cancellable scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    pending timers.  Cancellation is lazy: the heap entry stays queued but
    is skipped when popped; the owning simulator counts cancellations and
    compacts the heap when they dominate it.  Once the event has fired (or
    been dropped by compaction or :meth:`Simulator.close`) cancelling is a
    harmless no-op.

    The callback lives in the heap entry only, so a handle its owner keeps
    never keeps that owner alive through a bound method of its own.
    """

    __slots__ = ("time", "seq", "cancelled", "sim")

    def __init__(self, time: float, seq: int, sim: "Simulator | None" = None) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} ({state})>"


# Heap entry layout: (time, seq, fn, args, event-or-None).  ``event`` is
# None for the fast path; entries never compare past ``seq``.
_EVENT = 4


class Simulator:
    """The simulation clock and event queue.

    Args:
        check_invariants: Attach a runtime
            :class:`~repro.sim.invariants.InvariantChecker`.  ``None``
            (the default) consults the ``REPRO_CHECK_INVARIANTS``
            environment variable so whole test suites can opt in without
            threading a flag through every harness entry point.
        tracer: Optional :class:`repro.obs.TraceSink` that links and senders
            consult (``sim.tracer``) to record trace events.  ``None`` (the
            default) keeps every emission site on its single-branch
            no-op path; the event loop itself only touches the tracer
            when a budget trips.
        fidelity: Execution-fidelity mode — a
            :class:`repro.sim.fidelity.Fidelity`, a mode name, or
            ``None`` to consult ``REPRO_FIDELITY`` (default ``exact``).
            The engine itself only stores the resolved mode; links and
            senders consult ``sim.fidelity`` to decide whether the
            hybrid fast-forward paths are allowed to engage.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(
        self,
        check_invariants: bool | None = None,
        *,
        tracer: "Any | None" = None,
        fidelity: "Any | None" = None,
    ) -> None:
        from .fidelity import resolve_fidelity

        self.now: float = 0.0
        self.tracer = tracer
        self.fidelity = resolve_fidelity(fidelity)
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._running = False
        self._cancelled = 0
        self.events_fired: int = 0
        # Events whose effects were applied analytically (fast-forward)
        # without a heap dispatch.  ``events_fired + events_virtual`` is
        # the event chain's length in either fidelity mode.
        self.events_virtual: int = 0
        # ``until`` of the current run() (inf when unbounded): the walk
        # never absorbs a delivery past it (``LinkBase.forward``).
        self.horizon: float = float("inf")
        if check_invariants is None:
            check_invariants = os.environ.get("REPRO_CHECK_INVARIANTS", "") not in (
                "",
                "0",
            )
        self.invariants: "InvariantChecker | None" = None
        if check_invariants:
            from .invariants import InvariantChecker

            self.invariants = InvariantChecker(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time_s: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time_s``."""
        if time_s < self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({time_s} < now={self.now})"
            )
        self._seq += 1
        event = Event(time_s, self._seq, self)
        heapq.heappush(self._heap, (time_s, self._seq, fn, args, event))
        return event

    def schedule(self, delay_s: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay_s`` seconds from now.

        Inlined rather than delegating to :meth:`schedule_at`: a
        non-negative delay cannot land in the past, and relative
        scheduling is hot enough (pacing ticks, RTO arms) that the extra
        call and redundant past-check showed up in the engine
        microbenchmark.
        """
        if delay_s < 0:
            raise SimulationError(f"negative delay {delay_s}")
        time_s = self.now + delay_s
        self._seq += 1
        event = Event(time_s, self._seq, self)
        heapq.heappush(self._heap, (time_s, self._seq, fn, args, event))
        return event

    def schedule_fast_at(self, time_s: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule a fire-and-forget ``fn(*args)`` at absolute ``time_s``.

        No :class:`Event` is allocated, so the callback cannot be
        cancelled.  Use for the per-packet deliveries that dominate the
        heap; use :meth:`schedule_at` for anything a caller may cancel.

        A ``time_s`` in the past is clamped to ``now`` (with a
        ``sim.schedule.past`` trace event): analytic fast-forward can
        compute delivery times a float-rounding hair behind the clock,
        and firing such an entry would move the clock backwards.
        """
        if time_s < self.now:
            tracer = self.tracer
            if tracer is not None:
                tracer.record((SCHEDULE_PAST, self.now, None, None, time_s, self.now - time_s))
            time_s = self.now
        self._seq += 1
        heapq.heappush(self._heap, (time_s, self._seq, fn, args, None))

    def schedule_fast(self, delay_s: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule a fire-and-forget ``fn(*args)`` after ``delay_s``.

        Inlined for the same reason as :meth:`schedule`: per-packet
        deliveries pay this call on every packet, and a non-negative
        delay can never need the past-clamp in :meth:`schedule_fast_at`.
        """
        if delay_s < 0:
            raise SimulationError(f"negative delay {delay_s}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay_s, self._seq, fn, args, None))

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts when >50% is dead."""
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_HEAP and self._cancelled * 2 > len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and re-heapify.

        In place: :meth:`_drain` holds a local reference to the heap
        list, so rebinding ``self._heap`` here would strand it on a
        stale copy when an event handler cancels timers mid-run.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[_EVENT] is None or not entry[_EVENT].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: float | None = None,
        *,
        max_events: int | None = None,
        max_wall_s: float | None = None,
    ) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so post-run measurements see a
        consistent end time.

        ``max_events`` (default: the ``REPRO_MAX_EVENTS`` environment
        variable; ``None``/``0`` = unlimited) caps how many events this
        single ``run()`` call may fire, and ``max_wall_s`` caps its host
        wall-clock time (checked every 1024 events).  Exceeding either
        budget raises :class:`SimBudgetExceeded`; the simulation state
        stays consistent, but with ``until`` the clock is *not*
        fast-forwarded and no final invariant sweep runs.  The budgets
        are watchdogs against livelock (e.g. a protocol bug that
        reschedules itself at zero dt forever), not part of any
        scenario's semantics, so they never enter cache keys.
        """
        if max_events is None:
            max_events = env_max_events()
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self.horizon = float("inf") if until is None else until
        inv = self.invariants
        tracer = self.tracer
        if tracer is not None:
            tracer.record((RUN_BEGIN, self.now, None, None, until, max_events, max_wall_s))
        try:
            self._drain(until, inv, max_events, max_wall_s)
            if until is not None and until > self.now:
                self.now = until
            if inv is not None:
                inv.final_check()
            if tracer is not None:
                tracer.record((RUN_END, self.now, None, None, self.events_fired))
        finally:
            self._running = False

    def _drain(
        self,
        until: float | None,
        inv: "InvariantChecker | None",
        max_events: int | None,
        max_wall_s: float | None,
    ) -> None:
        """The event loop, budgeted or not: one event per turn.

        Each turn pops the earliest entry by ``(time, seq)``, skips it if
        cancelled, pushes it back and stops if it lies past ``until``
        (popping first is cheaper than peek-then-pop; the overshooting
        entry is rare), runs the budget checks, then detaches, fires and
        audits it.  A tripped budget pushes the entry back, so
        ``pending()`` still counts it; detaching only after the checks
        keeps a later ``cancel()`` of that entry counted.

        Watchdogs cost one integer compare per event: ``check_at`` is the
        fired count at which the next budget check is due (never, with no
        budget armed), so the event budget trips at exactly
        ``max_events``.
        """
        heap = self._heap
        pop = heapq.heappop
        until_t = float("inf") if until is None else until
        event_limit = _NO_BUDGET if max_events is None else max_events
        check_at = event_limit
        deadline = 0.0
        if max_wall_s is not None:
            # Watchdog only: the simulated world never sees this value.
            deadline = time.perf_counter() + max_wall_s  # repro: noqa[no-wallclock]
            check_at = min(_WALL_CHECK_EVENTS, event_limit)
        fired = 0
        try:
            while heap:
                # One tuple unpack instead of four subscripts per event.
                now, _, fn, args, event = entry = pop(heap)
                if event is not None and event.cancelled:
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    continue
                if now > until_t:
                    heapq.heappush(heap, entry)
                    break
                if fired >= check_at:
                    if fired >= event_limit:
                        # Back on the heap: pending() still sees it.
                        heapq.heappush(heap, entry)
                        if self.tracer is not None:
                            self.tracer.record(
                                (BUDGET_EVENTS, self.now, None, None, "events", fired, max_events)
                            )
                        raise SimBudgetExceeded(
                            f"event budget exhausted: {fired} events fired in one "
                            f"run() call with max_events={max_events} "
                            f"(sim time {self.now:.6f}s, {len(heap)} entries queued)",
                            events_fired=fired,
                            max_events=max_events,
                            max_wall_s=max_wall_s,
                        )
                    assert max_wall_s is not None
                    wall_now = time.perf_counter()  # repro: noqa[no-wallclock]
                    if wall_now > deadline:
                        heapq.heappush(heap, entry)
                        if self.tracer is not None:
                            self.tracer.record(
                                (BUDGET_WALL, self.now, None, None, "wall", fired, max_wall_s)
                            )
                        raise SimBudgetExceeded(
                            f"wall-clock budget exhausted: {max_wall_s:g}s of host "
                            f"time in one run() call after {fired} events "
                            f"(sim time {self.now:.6f}s)",
                            events_fired=fired,
                            max_events=max_events,
                            wall_s=wall_now - (deadline - max_wall_s),
                            max_wall_s=max_wall_s,
                        )
                    check_at = min(fired + _WALL_CHECK_EVENTS, event_limit)
                if event is not None:
                    # Detach so a late cancel() cannot corrupt accounting.
                    event.sim = None
                self.now = now
                fn(*args)
                fired += 1
                if inv is not None:
                    inv.after_event(now)
        finally:
            # One flush per run, not one attribute store per event; every
            # external reader observes the counter only after run()
            # returns or an exception has propagated through here.
            self.events_fired += fired

    def close(self) -> None:
        """End the simulation: drop every pending event and the invariant checker.

        The clock and the event counters stay readable, but nothing is
        left to run.  Dropped events are detached, so a late
        :meth:`Event.cancel` is a no-op, and what the heap held (bound
        methods of links, senders and receivers, all pointing back here)
        is freed by reference counting.  A run that owns its network
        calls this on return (``Topology.close``); a hand-built
        simulator keeps its pending events until its owner closes it.
        """
        for entry in self._heap:
            if entry[_EVENT] is not None:
                entry[_EVENT].sim = None
        self._heap.clear()
        self._cancelled = 0
        self.invariants = None

    def pending(self) -> int:
        """Number of queued live (non-cancelled) events — O(1).

        Maintained as ``heap length - cancelled count``; the exhaustive
        scan this used to perform survives as a debug assertion when
        invariant checking is attached.
        """
        live = len(self._heap) - self._cancelled
        if self.invariants is not None:
            assert live == self._pending_scan(), (
                f"live-event counter drifted: counted {live}, "
                f"scan found {self._pending_scan()}"
            )
        return live

    def _pending_scan(self) -> int:
        """O(n) reference count of live events (debug/verification only)."""
        return sum(
            1
            for entry in self._heap
            if entry[_EVENT] is None or not entry[_EVENT].cancelled
        )

    def heap_size(self) -> int:
        """Raw heap length including cancelled entries — for tests/debugging."""
        return len(self._heap)
