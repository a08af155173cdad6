"""Active queue management disciplines and the event-based link.

The paper's scavenger story implicitly assumes tail-drop FIFO
bottlenecks (as its Emulab setup uses).  AQM changes the picture:
CoDel/RED keep standing queues short, which starves LEDBAT's
delay-target signal and changes what any delay-based scavenger can
observe.  This module provides:

* :class:`TailDropDiscipline`, :class:`HeadDropDiscipline`,
  :class:`RandomDropDiscipline`, :class:`REDDiscipline`,
  :class:`CoDelDiscipline` — pluggable queue disciplines (the head/random
  variants evict an already-queued packet and accept the arrival, the
  classic LinkQueue drop-policy family);
* :class:`DynamicLink` — an event-based (per-packet queued) link that
  supports a queue discipline.  Its service rate, like any link's,
  varies only through a timeline (``bandwidth`` events, see
  :mod:`repro.sim.dynamics`; :func:`~repro.sim.dynamics.cellular_events`
  stands in for the cellular/LTE-like channels the paper's §7.2
  discussion defers to future work).

Drop accounting: arrivals refused at a full buffer count as
``stats.tail_drops``; drops *decided by the discipline* (CoDel dequeue
drops, head/random evictions) count as ``stats.aqm_drops``.  Both are
part of invariant packet conservation.

``DynamicLink`` trades speed for generality; the analytic
:class:`~repro.sim.link.Link` remains the default for FIFO bottlenecks.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from .engine import Simulator
from .link import DROP, DROP_TAIL, ENQUEUE, LinkBase, Receiver
from .noise import NoiseModel
from .packet import Packet
from ..core.rng import Rng
from ..core.tracepoint import tracepoint

# A DynamicLink decides a packet's departure when it serves it: its
# ``link.enqueue`` row leaves ``depart_s``/``deliver_at_s`` null and this
# row, written at the serializer finish, carries them.
DEQUEUE = tracepoint("link.dequeue", "node", "seq", "depart_s", "deliver_at_s")


class QueueDiscipline(Protocol):
    """Decides drops at enqueue and dequeue time.

    Two further hooks are *optional* (looked up with ``getattr`` by
    :class:`DynamicLink`):

    * ``on_idle(now)`` — called when the queue drains completely, so
      time-averaged state (RED's EWMA) can account for idle periods;
    * ``evict_on_full(lo, n, rng) -> int | None`` — called after
      ``on_enqueue`` voted to drop at a full buffer.  Return the index
      (``lo <= i < n``) of a *queued* packet to evict instead, accepting
      the arrival (head-drop / random-drop semantics), or ``None`` to
      drop the arrival as usual.  ``lo`` excludes the packet currently
      in service.
    """

    def on_enqueue(self, packet: Packet, queue_bytes: float, now: float,
                   rng: Rng) -> bool:
        """Return True to DROP the arriving packet."""
        ...

    def on_dequeue(self, packet: Packet, sojourn_s: float, now: float,
                   rng: Rng) -> bool:
        """Return True to DROP the departing packet (CoDel-style)."""
        ...


class TailDropDiscipline:
    """Plain FIFO tail drop at a byte limit."""

    def __init__(self, buffer_bytes: float):
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.buffer_bytes = buffer_bytes

    def on_enqueue(self, packet, queue_bytes, now, rng) -> bool:
        return queue_bytes + packet.size_bytes > self.buffer_bytes

    def on_dequeue(self, packet, sojourn_s, now, rng) -> bool:
        return False


class HeadDropDiscipline(TailDropDiscipline):
    """Drop-from-front at a byte limit.

    On overflow the *oldest* queued packet is evicted and the arrival is
    accepted — the loss signal reaches the sender a full queueing delay
    sooner than tail drop, which matters for delay-based scavengers
    watching a standing queue.
    """

    def evict_on_full(self, lo: int, n: int, rng: Rng) -> int | None:
        return lo if n > lo else None


class RandomDropDiscipline(TailDropDiscipline):
    """Drop-a-random-victim at a byte limit.

    On overflow a uniformly random queued packet is evicted and the
    arrival is accepted, spreading congestion losses across flows in
    proportion to their queue occupancy.
    """

    def evict_on_full(self, lo: int, n: int, rng: Rng) -> int | None:
        return rng.randrange(lo, n) if n > lo else None


class REDDiscipline:
    """Random Early Detection (Floyd & Jacobson 1993), byte mode.

    Drops probabilistically between ``min_th`` and ``max_th`` of EWMA
    queue size, always above ``max_th``; hard cap at ``buffer_bytes``.

    While the queue sits idle no enqueues happen, so the EWMA would
    otherwise freeze at its last (possibly large) value and over-drop the
    first packets after the idle period.  Per the paper's idle-time
    correction, the average is aged at the next enqueue as if ``m`` small
    packets had arrived at an empty queue during the idle gap:
    ``avg <- avg * (1 - weight) ** m`` with
    ``m = idle_s / idle_packet_s``.  ``idle_packet_s`` is the "typical
    transmission time" the correction is denominated in.
    """

    def __init__(
        self,
        buffer_bytes: float,
        min_th_bytes: float | None = None,
        max_th_bytes: float | None = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        idle_packet_s: float = 0.001,
    ):
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.buffer_bytes = buffer_bytes
        self.min_th = min_th_bytes if min_th_bytes is not None else buffer_bytes / 4
        self.max_th = max_th_bytes if max_th_bytes is not None else buffer_bytes / 2
        if not 0 < self.min_th < self.max_th <= buffer_bytes:
            raise ValueError("need 0 < min_th < max_th <= buffer")
        if not 0 < max_p <= 1:
            raise ValueError("max_p must be in (0, 1]")
        if idle_packet_s <= 0:
            raise ValueError("idle_packet_s must be positive")
        self.max_p = max_p
        self.weight = weight
        self.idle_packet_s = idle_packet_s
        self.avg_bytes = 0.0
        self._idle_since: float | None = None

    def on_idle(self, now: float) -> None:
        """Queue drained: remember when the idle period began."""
        self._idle_since = now

    def on_enqueue(self, packet, queue_bytes, now, rng) -> bool:
        if self._idle_since is not None:
            idle_s = now - self._idle_since
            self._idle_since = None
            if idle_s > 0.0:
                m = idle_s / self.idle_packet_s
                self.avg_bytes *= (1.0 - self.weight) ** m
        self.avg_bytes = (1 - self.weight) * self.avg_bytes + self.weight * queue_bytes
        if queue_bytes + packet.size_bytes > self.buffer_bytes:
            return True
        if self.avg_bytes < self.min_th:
            return False
        if self.avg_bytes >= self.max_th:
            return True
        fraction = (self.avg_bytes - self.min_th) / (self.max_th - self.min_th)
        return rng.random() < self.max_p * fraction

    def on_dequeue(self, packet, sojourn_s, now, rng) -> bool:
        return False


class CoDelDiscipline:
    """CoDel (Nichols & Jacobson 2012), simplified.

    Sojourn time above ``target`` persisting for ``interval`` starts
    dropping at dequeue; drop spacing shrinks with the square root of the
    drop count, per the reference pseudocode.  On entering the dropping
    state the previous drop count is resumed (minus the two-drop
    hysteresis credit) only when the state was left within the last
    ``interval`` — a fresh congestion episode restarts from a count of
    one, so drop spacing does not stay tight across long quiet gaps.
    """

    def __init__(
        self,
        buffer_bytes: float,
        target_s: float = 0.005,
        interval_s: float = 0.100,
    ):
        if buffer_bytes <= 0 or target_s <= 0 or interval_s <= 0:
            raise ValueError("invalid CoDel parameters")
        self.buffer_bytes = buffer_bytes
        self.target_s = target_s
        self.interval_s = interval_s
        self._first_above_time: float | None = None
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0

    def on_enqueue(self, packet, queue_bytes, now, rng) -> bool:
        return queue_bytes + packet.size_bytes > self.buffer_bytes

    def on_dequeue(self, packet, sojourn_s, now, rng) -> bool:
        if sojourn_s < self.target_s:
            self._first_above_time = None
            self._dropping = False
            return False
        if self._first_above_time is None:
            self._first_above_time = now + self.interval_s
            return False
        if self._dropping:
            if now >= self._drop_next:
                self._count += 1
                self._drop_next = now + self.interval_s / (self._count ** 0.5)
                return True
            return False
        if now < self._first_above_time:
            return False
        # Enter the dropping state, dropping this packet.  ``_drop_next``
        # still holds the schedule of the previous episode: re-entry
        # within one interval of it resumes that episode's drop count
        # (less the hysteresis credit of 2); otherwise start afresh.
        self._dropping = True
        if self._count > 2 and now - self._drop_next < self.interval_s:
            self._count -= 2
        else:
            self._count = 1
        self._drop_next = now + self.interval_s / (self._count ** 0.5)
        return True


class DynamicLink(LinkBase):
    """Event-based link: explicit queue, AQM hooks.

    Args:
        sim: The simulator.
        rate_bps: Service rate in bits/s; a packet is served at the rate
            current when its service starts.
        delay_s: Propagation delay.
        discipline: Queue discipline (defaults to 256 KB tail drop).
        loss_rate / noise / rng: As for :class:`~repro.sim.link.Link`.
    """

    # Event-based queue state cannot be advanced analytically: no walk
    # admits into a DynamicLink and no round trip across one collapses,
    # though its deliveries may walk on into an analytic link (see
    # repro.sim.fidelity.activate_fastforward).
    can_fastforward = False

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay_s: float,
        discipline: QueueDiscipline | None = None,
        loss_rate: float = 0.0,
        noise: NoiseModel | None = None,
        rng: Rng | None = None,
        name: str = "dynamic-link",
    ):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        super().__init__(sim, delay_s, loss_rate, noise, rng, name)
        self.rate_bps = rate_bps
        self.discipline = discipline if discipline is not None else TailDropDiscipline(256e3)
        self._queue: deque[tuple[Packet, Receiver, float]] = deque()
        self._queue_bytes = 0.0
        self._serving = False

    # ------------------------------------------------------------------
    def backlog_bytes(self) -> float:
        return self._queue_bytes

    def queued_packets(self) -> int:
        """Packets waiting in (or being served from) the explicit queue."""
        return len(self._queue)

    def close(self) -> None:
        """Forget where queued packets were going; they still count as queued."""
        self._queue = deque((packet, None, at) for packet, _, at in self._queue)

    # ------------------------------------------------------------------
    # Mid-run dynamics (driven by repro.sim.dynamics.TimelineDriver)
    # ------------------------------------------------------------------
    def set_bandwidth_bps(self, bandwidth_bps: float) -> None:
        """Change the service rate from now on.

        The packet currently in service (if any) keeps its already
        scheduled finish time — it is past the serializer — and every
        later packet is served at the new rate.
        """
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        self.rate_bps = bandwidth_bps
        self.stats.rate_changes += 1

    def send(self, packet: Packet, dst: Receiver) -> bool:
        now = self.sim.now
        tracer = self.sim.tracer
        self.stats.offered += 1
        if self._down:
            # The queue keeps serving what it holds; arrivals are refused.
            self.stats.outage_drops += 1
            if tracer is not None:
                tracer.record(
                    (DROP, now, packet.flow_id, self.name, self.node, "outage", packet.seq)
                )
            return False
        while self.discipline.on_enqueue(packet, self._queue_bytes, now, self.rng):
            # Disciplines with an eviction policy (head/random drop) make
            # room by sacrificing a queued packet; anything else is a
            # plain tail drop of the arrival.
            if not self._evict_one(now, tracer):
                self.stats.tail_drops += 1
                if tracer is not None:
                    tracer.record(
                        (DROP_TAIL, now, packet.flow_id, self.name, self.node, "tail",
                         packet.seq, self._queue_bytes)
                    )
                return False
        if self._queue_bytes + packet.size_bytes > self.stats.max_backlog_bytes:
            self.stats.max_backlog_bytes = self._queue_bytes + packet.size_bytes
        self._queue.append((packet, dst, now))
        self._queue_bytes += packet.size_bytes
        if tracer is not None:
            tracer.record(
                (ENQUEUE, now, packet.flow_id, self.name, self.node, packet.seq,
                 packet.size_bytes, self._queue_bytes, None, None)
            )
        if not self._serving:
            self._serve_next()
        return True

    def _evict_one(self, now: float, tracer) -> bool:
        """Evict one queued packet chosen by the discipline; True on success.

        The packet at index 0 is in transmission while ``_serving`` and
        cannot be recalled, so victims start behind it.
        """
        evict = getattr(self.discipline, "evict_on_full", None)
        if evict is None:
            return False
        lo = 1 if self._serving else 0
        if len(self._queue) <= lo:
            return False
        index = evict(lo, len(self._queue), self.rng)
        if index is None:
            return False
        victim, _dst, _enq = self._queue[index]
        del self._queue[index]
        self._queue_bytes -= victim.size_bytes
        self.stats.aqm_drops += 1
        if tracer is not None:
            tracer.record(
                (DROP, now, victim.flow_id, self.name, self.node, "aqm", victim.seq)
            )
        return True

    def _serve_next(self) -> None:
        if not self._queue:
            self._serving = False
            # Let time-averaged disciplines (RED) see the idle period.
            on_idle = getattr(self.discipline, "on_idle", None)
            if on_idle is not None:
                on_idle(self.sim.now)
            return
        self._serving = True
        packet, _dst, _enq = self._queue[0]
        service_time = packet.size_bytes * 8.0 / self.rate_bps
        self.sim.schedule_fast(service_time, self._finish_service)

    def _finish_service(self) -> None:
        packet, dst, enqueued_at = self._queue.popleft()
        self._queue_bytes -= packet.size_bytes
        now = self.sim.now
        tracer = self.sim.tracer
        sojourn = now - enqueued_at
        dropped = self.discipline.on_dequeue(packet, sojourn, now, self.rng)
        if dropped:
            # A discipline decision, not a buffer overflow: accounted
            # separately so AQM activity is visible in summaries.
            self.stats.aqm_drops += 1
            if tracer is not None:
                tracer.record(
                    (DROP, now, packet.flow_id, self.name, self.node, "aqm", packet.seq)
                )
        elif (
            self.loss_model.is_lost(self.rng)
            if self.loss_model is not None
            else self.loss_rate > 0.0 and self.rng.random() < self.loss_rate
        ):
            self.stats.random_losses += 1
            if tracer is not None:
                tracer.record(
                    (DROP, now, packet.flow_id, self.name, self.node, "wire", packet.seq)
                )
        else:
            deliver_at = now + self.delay_s
            if self.noise is not None:
                deliver_at += self.noise.sample(now, self.rng)
            # FIFO even under noise and mid-run delay decreases, as in
            # ``Link._admit``: never deliver before an earlier packet.
            if deliver_at <= self._last_delivery:
                deliver_at = self._last_delivery + 1e-9
            self._last_delivery = deliver_at
            self.stats.delivered += 1
            if tracer is not None:
                tracer.record(
                    (DEQUEUE, now, packet.flow_id, self.name, self.node, packet.seq,
                     now, deliver_at)
                )
            self.forward(packet, dst, deliver_at)
        self._serve_next()
