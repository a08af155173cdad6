"""Runtime invariant checking for the simulator.

The paper's noise-tolerance claims (§5, Figs 9-10) rest on separating
*injected* jitter from *accidental* nondeterminism or accounting bugs in
the simulator itself.  This module audits structural invariants while a
simulation runs, so a broken link or a clock regression fails loudly in
the test suite instead of silently skewing a benchmark:

* **packet conservation** — for every link, packets offered equal packets
  delivered + tail-, AQM- and outage-dropped + randomly lost + still queued;
* **non-negative queues** — link backlogs never go negative;
* **monotonic clock** — simulated time never moves backwards across
  event dispatches;
* **bounded RTT samples** — every RTT sample is finite, at least the
  path's propagation delay, and no larger than the flow's lifetime.

Attach a checker with ``Simulator(check_invariants=True)`` or by setting
``REPRO_CHECK_INVARIANTS=1`` in the environment (the tier-1 test suite
does the latter in ``tests/conftest.py``).  Links and flows register
themselves automatically when their simulator carries a checker.

The per-event cost is one float compare; the full sweep over links and
flows runs every ``sweep_every_events`` events and once more when
:meth:`Simulator.run` returns.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator
    from .flow import Flow

_QUEUE_EPSILON_BYTES = 1e-6
_RTT_EPSILON_S = 1e-9


class InvariantError(SimulationError):
    """A structural invariant of the simulation was violated."""


class InvariantChecker:
    """Audits conservation, queue, clock, and RTT invariants during a run.

    Args:
        sim: The simulator being audited.
        sweep_every_events: Events between full link/flow sweeps.  The
            monotonic-clock check runs on every event regardless.
        max_stall_events: Optional livelock tripwire — raise when this
            many *consecutive* events fire without the simulated clock
            advancing (the signature of a zero-dt self-rescheduling
            bug).  ``None`` (default) disables the check; legitimate
            bursts of same-timestamp events (simultaneous arrivals) stay
            well under any sensible threshold.  This complements the
            engine-level ``max_events`` watchdog: the invariant names
            the *cause* (a stalled clock) where the budget only bounds
            the damage.
    """

    def __init__(
        self,
        sim: "Simulator",
        sweep_every_events: int = 256,
        max_stall_events: int | None = None,
    ):
        if sweep_every_events < 1:
            raise ValueError("sweep_every_events must be positive")
        if max_stall_events is not None and max_stall_events < 1:
            raise ValueError("max_stall_events must be positive")
        self.sim = sim
        self.sweep_every_events = sweep_every_events
        self.max_stall_events = max_stall_events
        # The first event after attaching starts a run of same-time
        # events (counts 0) whatever the clock reads; the backwards-clock
        # check compares it with the clock at attach time.
        self._stall_events = -1
        self._links: list = []
        self._flows: list["Flow"] = []
        self._rtt_checked: dict[int, int] = {}  # id(flow) -> samples audited
        self._last_now = sim.now
        self._events_since_sweep = 0
        self.sweeps = 0  # total full sweeps (for tests)

    # ------------------------------------------------------------------
    # Registration (called from Link / DynamicLink / Flow constructors)
    # ------------------------------------------------------------------
    def register_link(self, link) -> None:
        """Track a link-like object (needs ``stats``, ``backlog_bytes()``,
        ``queued_packets()``)."""
        self._links.append(link)

    def register_flow(self, flow: "Flow") -> None:
        """Track a flow's RTT samples."""
        self._flows.append(flow)
        self._rtt_checked[id(flow)] = 0

    def release_flow(self, flow: "Flow") -> None:
        """Audit a finished flow's RTT samples one last time and forget it.

        Called by ``Flow.release``: the flow's sender has stopped, so no
        sample can follow.
        """
        self._check_flow_rtts(flow)
        self._flows.remove(flow)
        del self._rtt_checked[id(flow)]

    # ------------------------------------------------------------------
    # Hooks (called from the engine)
    # ------------------------------------------------------------------
    def after_event(self, now: float) -> None:
        """Per-event hook, called after each event fires at ``now``.

        Checks clock monotonicity, counts the stall tripwire (0 when the
        clock advances, else +1) and runs the periodic sweep.
        """
        if now < self._last_now:
            raise InvariantError(
                f"simulated clock moved backwards: {self._last_now} -> {now}"
            )
        if self.max_stall_events is not None:
            if now > self._last_now:
                self._stall_events = 0
            else:
                self._stall_events += 1
                if self._stall_events >= self.max_stall_events:
                    raise InvariantError(
                        f"simulated clock stalled: {self._stall_events} "
                        f"consecutive events at t={now} (zero-dt "
                        "self-rescheduling livelock?)"
                    )
        self._last_now = now
        self._events_since_sweep += 1
        if self._events_since_sweep >= self.sweep_every_events:
            self.check_now()

    def final_check(self) -> None:
        """End-of-run hook: one last full sweep."""
        self.check_now()

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run every invariant immediately (also usable from tests)."""
        self._events_since_sweep = 0
        self.sweeps += 1
        for link in self._links:
            self._check_link(link)
        for flow in self._flows:
            self._check_flow_rtts(flow)

    def _check_link(self, link) -> None:
        stats = link.stats
        queued = link.queued_packets()
        accounted = stats.accounted(queued)
        if stats.offered != accounted:
            raise InvariantError(
                f"packet conservation violated on {link.name!r}: "
                f"offered={stats.offered} but delivered={stats.delivered} "
                f"+ tail_drops={stats.tail_drops} "
                f"+ aqm_drops={stats.aqm_drops} "
                f"+ random_losses={stats.random_losses} "
                f"+ outage_drops={stats.outage_drops} + queued={queued} "
                f"= {accounted}"
            )
        backlog = link.backlog_bytes()
        if backlog < -_QUEUE_EPSILON_BYTES or not math.isfinite(backlog):
            raise InvariantError(
                f"negative or non-finite backlog on {link.name!r}: {backlog}"
            )

    def _check_flow_rtts(self, flow: "Flow") -> None:
        rtts = flow.stats.rtts
        start = self._rtt_checked[id(flow)]
        if start >= len(rtts):
            return
        # Against the *minimum* propagation delay the path ever had: after
        # a mid-run delay increase, samples taken earlier legitimately sit
        # below the current base RTT.
        floor_s = flow.min_base_rtt() - _RTT_EPSILON_S
        ceiling_s = self.sim.now - flow.start_time + _RTT_EPSILON_S
        for i in range(start, len(rtts)):
            rtt = rtts[i]
            if not math.isfinite(rtt) or rtt < floor_s or rtt > ceiling_s:
                raise InvariantError(
                    f"RTT sample {rtt} of flow {flow.flow_id} outside "
                    f"[{floor_s}, {ceiling_s}] (sample #{i})"
                )
        self._rtt_checked[id(flow)] = len(rtts)
