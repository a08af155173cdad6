"""A unidirectional link with a tail-drop FIFO buffer.

The queue is modelled analytically rather than with explicit per-packet
queue events: a link keeps the time at which its transmitter frees up
(``_busy_until``); the backlog in bytes at any instant is
``(busy_until - now) * bandwidth / 8``.  This is exact for a
work-conserving FIFO serializer and halves the event count, which matters
for pure-Python packet-level simulation.

Random (non-congestion) loss and latency noise are applied after the
queue, matching loss on the wire/wireless channel.  FIFO delivery order is
enforced even under noise, so a delay spike compresses the packets behind
it into a burst (the ACK-compression effect discussed in §5 of the paper).

Links support **mid-run dynamics** (see :mod:`repro.sim.dynamics`): the
bandwidth, propagation delay, loss model, and up/down state can all change
while a simulation runs.  A bandwidth change remaps the analytic backlog —
the residual bits keep their byte count and drain at the new rate — and a
delay change only affects packets enqueued afterwards.  The FIFO guard
covers both cases, so deliveries already in flight are never reordered.
"""

from __future__ import annotations

from heapq import heappush
from typing import Protocol

from .engine import Simulator
from .noise import NoiseModel
from .packet import Packet
from ..core.rng import Rng
from ..core.tracepoint import tracepoint

# Per-packet tracepoints; a site's row carries the values in this order.
# One ``link.enqueue`` row per admitted packet: ``depart_s`` is its
# serializer finish and ``deliver_at_s`` its arrival, ``None`` when the
# wire loses it.  A DynamicLink decides both later: ``None`` and ``None``.
ENQUEUE = tracepoint(
    "link.enqueue", "node", "seq", "size_bytes", "backlog_bytes", "depart_s", "deliver_at_s"
)
DROP = tracepoint("link.drop", "node", "reason", "seq")
DROP_TAIL = tracepoint("link.drop", "node", "reason", "seq", "backlog_bytes")


class Receiver(Protocol):
    """Anything that can accept delivered packets.

    A receiver that admits what it receives into a link may also name
    that link as ``into`` and offer ``receive_at(packet, at_s)``: the
    same handling at a delivery time ahead of the clock, short of the
    admission, returning ``(packet it sends on, that packet's
    receiver)``, or ``None`` to decline (see :meth:`LinkBase.forward`).
    """

    def receive(self, packet: Packet) -> None: ...


class LossModel(Protocol):
    """Stateful per-packet wire-loss decision (see ``GilbertElliott``)."""

    def is_lost(self, rng: Rng) -> bool: ...


class LinkStats:
    """Counters exposed by every link for assertions and reports."""

    __slots__ = (
        "offered",
        "delivered",
        "tail_drops",
        "aqm_drops",
        "random_losses",
        "outage_drops",
        "rate_changes",
        "max_backlog_bytes",
    )

    def __init__(self) -> None:
        self.offered = 0
        self.delivered = 0
        self.tail_drops = 0
        # Drops decided by a queue discipline (CoDel dequeue drops,
        # head/random-drop evictions) — distinct from buffer-overflow
        # tail drops so AQM behaviour is visible in summaries.
        self.aqm_drops = 0
        self.random_losses = 0
        self.outage_drops = 0
        self.rate_changes = 0
        self.max_backlog_bytes = 0.0

    def accounted(self, queued: int) -> int:
        """Packets the link can account for, given ``queued`` still queued.

        Packet conservation: ``offered`` must equal delivered + tail-,
        AQM- and outage-dropped + randomly lost + ``queued``.
        """
        return (
            self.delivered
            + self.tail_drops
            + self.aqm_drops
            + self.random_losses
            + self.outage_drops
            + queued
        )


class LinkBase:
    """What every link has: identity, counters, delay, wire loss, noise.

    :class:`Link` (analytic queue) and
    :class:`~repro.sim.aqm.DynamicLink` (event-based queue) differ in how
    they queue and serialize; everything else lives here once.
    """

    def __init__(
        self,
        sim: Simulator,
        delay_s: float,
        loss_rate: float,
        noise: NoiseModel | None,
        rng: Rng | None,
        name: str,
    ):
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.delay_s = delay_s
        # Smallest propagation delay this link ever had: the RTT-floor
        # invariant must use it, because samples taken before a mid-run
        # delay increase legitimately sit below the *current* delay.
        self.min_delay_s = delay_s
        self.loss_rate = loss_rate
        # Stateful wire-loss model (see ``LossModel``); when set it
        # replaces the Bernoulli ``loss_rate`` draw.  Timelines install
        # and clear it mid-run (``repro.sim.dynamics``).
        self.loss_model: LossModel | None = None
        self.noise = noise
        self.rng = rng if rng is not None else Rng(0)
        self.name = name
        # Source node in a topology graph ("" for standalone links);
        # carried on every ``link.*`` trace event as the hop tag.
        self.node = ""
        self.stats = LinkStats()
        self._last_delivery = 0.0
        self._down = False
        # Fast-forward state (see repro.sim.fidelity).  ``ff_barrier_s``
        # is the next time at which this link's behaviour changes (a
        # timeline event), maintained by the TimelineDriver; ``inf`` on
        # static links.  ``walkable`` is set by ``activate_fastforward``
        # when every packet this link receives comes through one upstream
        # link.  ``chain_pending`` is the latest delivery pushed as an
        # event whose handler admits into this link.
        self.ff_barrier_s = float("inf")
        self.walkable = False
        self.chain_pending = float("-inf")
        if sim.invariants is not None:
            sim.invariants.register_link(self)

    def set_delay_s(self, delay_s: float) -> None:
        """Change the propagation delay of deliveries computed from now on.

        Packets already given a delivery time keep it; the FIFO guard of
        each link class stops later packets from overtaking them after a
        decrease.
        """
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        self.delay_s = delay_s
        if delay_s < self.min_delay_s:
            self.min_delay_s = delay_s

    def is_down(self) -> bool:
        """True while an outage window is active (all sends are dropped)."""
        return self._down

    def set_down(self, down: bool) -> None:
        """Begin (True) or end (False) an outage window.

        While down, every offered packet is refused (``outage_drops``).
        Packets accepted before the outage still arrive: past the
        serializer in the analytic model, served from the explicit
        queue in the event-based one.
        """
        self._down = bool(down)

    def close(self) -> None:
        """End of the run: drop what leads from this link back into the network.

        The analytic link keeps nothing but its delivery events, which
        :meth:`~repro.sim.engine.Simulator.close` drops.
        """

    def forward(self, packet: Packet, dst: Receiver, at_s: float) -> None:
        """Hand ``packet``, delivered at ``at_s``, to ``dst``: the one door.

        A receiver that admits into a walkable link (its ``into``) takes
        the packet now, ahead of the clock: ``dst.receive_at(packet,
        at_s)`` does what ``dst.receive`` would at ``at_s`` short of the
        admission, and hands back what it sends on and to whom; the walk
        admits that into ``into`` at ``at_s`` and carries on with its
        delivery.  A normal heap event is pushed instead when the walk
        could change what the event chain would do: the delivery lies
        past the current ``run(until=...)``, at or past that link's next
        timeline step, or behind a delivery into it still on the heap
        (``chain_pending``), or the receiver declines.
        """
        sim = self.sim
        while True:
            into = getattr(dst, "into", None)
            if into is None:
                break
            if (
                into.walkable
                and at_s <= sim.horizon
                and at_s < into.ff_barrier_s
                and into.chain_pending < sim.now
            ):
                onward = dst.receive_at(packet, at_s)
                if onward is not None:
                    sim.events_virtual += 1
                    packet, dst = onward
                    at_s = into._admit(packet, at_s)
                    if not at_s:
                        return
                    continue
            if at_s > into.chain_pending:
                into.chain_pending = at_s
            break
        # Deliveries are fire-and-forget and dominate the heap, so the
        # entry is pushed here (``schedule_fast_at``, inlined).  The call
        # is kept for its past-time clamp, which only a noise model
        # sampling a negative delay can need.
        if at_s >= sim.now:
            sim._seq += 1
            heappush(sim._heap, (at_s, sim._seq, dst.receive, (packet,), None))
        else:
            sim.schedule_fast_at(at_s, dst.receive, packet)


# ``Link._admit`` result for a packet accepted, then lost on the wire: falsy
# like ``None`` (refused) yet distinct from it; real delivery times are > 0.
_WIRE_LOST = 0.0


class Link(LinkBase):
    """Unidirectional bandwidth/delay/buffer pipe.

    Args:
        sim: The owning simulator.
        bandwidth_bps: Serialization rate in bits per second.
        delay_s: One-way propagation delay in seconds.
        buffer_bytes: Tail-drop queue capacity in bytes. ``float('inf')``
            gives an unbounded queue.
        loss_rate: Probability of random (non-congestion) loss per packet.
        noise: Optional latency-noise model (see :mod:`repro.sim.noise`).
        loss_model: Optional stateful loss model (e.g. Gilbert-Elliott
            burst loss, see :mod:`repro.sim.dynamics`); when set it
            replaces the Bernoulli ``loss_rate`` draw.
        rng: RNG used for loss and noise draws.
    """

    # The analytic link supports the collapsed round trip
    # (``send_ff``/``peek_round_trip_ff``); event-based links do not.
    can_fastforward = True

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
        buffer_bytes: float = float("inf"),
        loss_rate: float = 0.0,
        noise: NoiseModel | None = None,
        loss_model: LossModel | None = None,
        rng: Rng | None = None,
        name: str = "link",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        super().__init__(sim, delay_s, loss_rate, noise, rng, name)
        self.bandwidth_bps = bandwidth_bps
        self.buffer_bytes = buffer_bytes
        self.loss_model = loss_model
        self._busy_until = 0.0

    # ------------------------------------------------------------------
    def backlog_bytes(self) -> float:
        """Bytes currently queued or in transmission."""
        return max(0.0, self._busy_until - self.sim.now) * self.bandwidth_bps / 8.0

    def queueing_delay(self) -> float:
        """Waiting time a packet enqueued right now would experience."""
        return max(0.0, self._busy_until - self.sim.now)

    def queued_packets(self) -> int:
        """Packets held in an explicit queue (none: the queue is analytic)."""
        return 0

    # ------------------------------------------------------------------
    # Mid-run dynamics (driven by repro.sim.dynamics.TimelineDriver)
    # ------------------------------------------------------------------
    def set_bandwidth_bps(self, bandwidth_bps: float) -> None:
        """Change the serialization rate mid-run.

        The analytic queue assumes a constant rate, so the residual
        backlog must be remapped: the bits not yet serialized keep their
        count and drain at the new rate, i.e. ``busy_until`` becomes
        ``now + residual_bits / new_rate``.  Byte occupancy is invariant
        under the remap, so the buffer bound still holds.  Deliveries
        already scheduled keep their times; the FIFO guard in
        :meth:`_admit` prevents later packets from overtaking them when
        the rate increases.
        """
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        now = self.sim.now
        residual_bits = max(0.0, self._busy_until - now) * self.bandwidth_bps
        self.bandwidth_bps = bandwidth_bps
        self._busy_until = now + residual_bits / bandwidth_bps
        self.stats.rate_changes += 1

    # ------------------------------------------------------------------
    def _admit(self, packet: Packet, now: float) -> "float | None":
        """Offer ``packet`` to the queue at time ``now``: the link rule.

        The one statement of outage, tail drop, transmitter claim, wire
        loss, noise and the FIFO guard, with every counter update, RNG
        draw and ``link.*`` trace row.  Returns the delivery time,
        ``_WIRE_LOST`` when the packet was accepted but never
        arrives, or ``None`` when it was refused (outage or tail drop).
        """
        tracer = self.sim.tracer
        stats = self.stats
        stats.offered += 1
        if self._down:
            stats.outage_drops += 1
            if tracer is not None:
                tracer.record(
                    (DROP, now, packet.flow_id, self.name, self.node, "outage", packet.seq)
                )
            return None
        size = packet.size_bytes
        bw = self.bandwidth_bps
        busy = self._busy_until
        backlog = (busy - now) * bw / 8.0 if busy > now else 0.0
        # Peak occupancy includes the packet being offered.
        occupancy = backlog + size
        # Epsilon absorbs float error in the analytic backlog computation.
        if occupancy > self.buffer_bytes + 1e-6:
            stats.tail_drops += 1
            if tracer is not None:
                tracer.record(
                    (DROP_TAIL, now, packet.flow_id, self.name, self.node, "tail",
                     packet.seq, backlog)
                )
            return None
        if occupancy > stats.max_backlog_bytes:
            stats.max_backlog_bytes = occupancy

        self._busy_until = busy = (busy if busy > now else now) + size * 8.0 / bw

        if self.loss_model is not None:
            lost = self.loss_model.is_lost(self.rng)
        else:
            lost = self.loss_rate > 0.0 and self.rng.random() < self.loss_rate
        if lost:
            # The packet still consumed transmitter time, but never arrives.
            stats.random_losses += 1
            if tracer is not None:
                tracer.record((ENQUEUE, now, packet.flow_id, self.name, self.node, packet.seq,
                               size, occupancy, busy, None))
                tracer.record(
                    (DROP, now, packet.flow_id, self.name, self.node, "wire", packet.seq)
                )
            return _WIRE_LOST

        deliver_at = busy + self.delay_s
        if self.noise is not None:
            deliver_at += self.noise.sample(now, self.rng)
        # FIFO even under noise and mid-run rate/delay changes: never
        # deliver before an earlier packet.
        if deliver_at <= self._last_delivery:
            deliver_at = self._last_delivery + 1e-9
        self._last_delivery = deliver_at
        stats.delivered += 1
        if tracer is not None:
            tracer.record((ENQUEUE, now, packet.flow_id, self.name, self.node, packet.seq,
                           size, occupancy, busy, deliver_at))
        return deliver_at

    def send(self, packet: Packet, dst: Receiver) -> bool:
        """Enqueue ``packet`` for delivery to ``dst``.

        Returns True if the packet was accepted (it may still be randomly
        lost on the wire) and False on a tail drop or outage drop.
        """
        deliver_at = self._admit(packet, self.sim.now)
        if deliver_at:
            self.forward(packet, dst, deliver_at)
        return deliver_at is not None

    def send_ff(self, packet: Packet, at_s: float) -> "float | None":
        """Analytic send at virtual time ``at_s``: no delivery event.

        The hybrid-fidelity collapse path (see :mod:`repro.sim.fidelity`)
        runs the receiver's bookkeeping inline instead of scheduling a
        delivery, so it needs the delivery timestamp as a value: this is
        :meth:`send` with the clock read replaced by ``at_s`` and the
        ``schedule_fast_at`` dropped.  Returns the delivery time, or
        ``None`` when the packet never arrives (outage, tail drop, or
        wire loss).

        Callers are responsible for fast-forward eligibility: ``at_s``
        at or after this link's ``ff_barrier_s`` is a contract violation
        (the link's parameters may change at the barrier).
        """
        return self._admit(packet, at_s) or None

    def peek_round_trip_ff(
        self, size_bytes: int, at_s: float, reverse: "Link", ack_bytes: int
    ) -> float:
        """Upper bound on the ACK arrival of a packet sent at ``at_s``.

        A dry run of the noise-free :meth:`send_ff` chain through this
        link and ``reverse`` — no state is mutated.  The collapse path
        compares this against the links' fast-forward barriers before
        committing to an analytic send.
        """
        start = self._busy_until if self._busy_until > at_s else at_s
        deliver = start + size_bytes * 8.0 / self.bandwidth_bps + self.delay_s
        if deliver <= self._last_delivery:
            deliver = self._last_delivery + 1e-9
        start = reverse._busy_until if reverse._busy_until > deliver else deliver
        ack_at = start + ack_bytes * 8.0 / reverse.bandwidth_bps + reverse.delay_s
        if ack_at <= reverse._last_delivery:
            ack_at = reverse._last_delivery + 1e-9
        return ack_at
