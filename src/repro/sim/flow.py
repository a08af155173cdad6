"""Flow wiring: sender, path, receiver, and the ACK channel.

A :class:`Flow` connects one sender (a congestion-control object from
:mod:`repro.protocols` or :mod:`repro.core`) to a receiver across a
forward :class:`Path` of links, with ACKs returning over a reverse path
that ends on the sender itself.  Both routes are resolved once, when the
flow is built (:meth:`Path.route`); a packet hop is then one
``link.send``.  The flow owns sequence numbering, the per-flow stats
record, and data availability (bulk transfer by default; applications
can meter bytes in for chunked workloads).
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from .engine import Simulator
from .link import Link, Receiver
from .packet import ACK_BYTES, Packet
from .trace import FlowStats
from ..core.tracepoint import tracepoint

_INF = float("inf")
FF_COLLAPSE = tracepoint("sim.fastforward", "reason", "seq", "ack_at_s")


class SenderProtocol(Protocol):
    """What a Flow requires of a sender object (see protocols.base)."""

    def bind(self, sim: Simulator, flow: "Flow") -> None: ...
    def start(self) -> None: ...
    def receive(self, ack: Packet) -> None: ...
    def on_data_available(self) -> None: ...
    def stop(self) -> None: ...


class Path:
    """An ordered sequence of links from one host to another."""

    def __init__(self, links: list[Link]):
        if not links:
            raise ValueError("a path needs at least one link")
        # Immutable: the chains :meth:`route` builds are kept by flows.
        self.links = tuple(links)

    def base_delay(self) -> float:
        """Sum of propagation delays (no queueing/serialization)."""
        return sum(link.delay_s for link in self.links)

    def min_base_delay(self) -> float:
        """Sum of the smallest propagation delay each link ever had.

        Equal to :meth:`base_delay` on static links; diverges only when a
        timeline raises a link's delay mid-run (``min_delay_s`` tracks the
        floor on both link classes).
        """
        return sum(link.min_delay_s for link in self.links)

    def route(self, dst: Receiver) -> tuple[Link, Receiver]:
        """Build the forwarding chain to ``dst``; call once per flow.

        Returns ``(first link, its receiver)``: ``link.send(packet,
        receiver)`` carries a packet over every hop to ``dst`` and
        reports a first-hop drop.  On a single-link path the receiver is
        ``dst`` itself.
        """
        for link in self.links[:0:-1]:
            dst = _Hop(link, dst)
        return self.links[0], dst


class _Hop:
    """Forwards what one link delivers onto the next link of a path."""

    __slots__ = ("into", "dst")

    def __init__(self, link: Link, dst: Receiver):
        self.into = link
        self.dst = dst

    def receive(self, packet: Packet) -> None:
        self.into.send(packet, self.dst)

    def receive_at(self, packet: Packet, at_s: float) -> "tuple[Packet, Receiver]":
        """The walk's :meth:`receive`: ``packet`` goes on to ``dst``."""
        return packet, self.dst


class FlowReceiver:
    """Receiver endpoint: records deliveries and returns one ACK per packet.

    ``into`` is the link its ACKs enter, the first link of the flow's
    reverse path.
    """

    def __init__(self, flow: "Flow"):
        self.flow = flow
        self.into: "Link | None" = None
        self._ack_seq = 0

    def receive(self, packet: Packet) -> None:
        flow = self.flow
        now = flow.sim.now
        size = packet.size_bytes
        stats = flow.stats
        stats.delivered_bytes += size  # record_delivery, inlined
        if stats.first_delivery is None:
            stats.first_delivery = now
        stats.last_delivery = now
        if flow.on_delivery is not None:
            flow.on_delivery(now, size)
        self._ack_seq += 1
        # Positional: flow_id, seq, size_bytes, sent_time, is_ack,
        # data_seq, data_sent_time, data_recv_time.
        ack = Packet(
            flow.flow_id, self._ack_seq, ACK_BYTES, now,
            True, packet.seq, packet.sent_time, now,
        )
        flow.rev_link.send(ack, flow.rev_dst)
        if flow.size_bytes is not None:
            flow.check_complete()

    def receive_at(self, packet: Packet, at_s: float) -> "tuple[Packet, Receiver] | None":
        """The walk's :meth:`receive` at ``at_s``: returns the ACK and its route.

        Declines (returns None, changing nothing) when the flow has an
        ``on_delivery`` callback, read here because applications may set
        it after the flow is built.  The delivery that completes a
        bounded flow walks its ACK too, but ``check_complete`` stays a
        real event at the delivery time, in the place the delivery event
        would take on the heap.
        """
        flow = self.flow
        if flow.on_delivery is not None:
            return None
        size = packet.size_bytes
        stats = flow.stats
        stats.delivered_bytes += size
        if (
            flow.size_bytes is not None
            and not flow.completed
            and stats.delivered_bytes >= flow.size_bytes > stats.delivered_bytes - size
        ):
            sim = flow.sim
            sim.schedule_fast_at(at_s, flow.check_complete)
            # That event is the delivery's dispatch, so it is not skipped.
            sim.events_virtual -= 1
        if stats.first_delivery is None:
            stats.first_delivery = at_s
        stats.last_delivery = at_s
        self._ack_seq += 1
        ack = Packet(
            flow.flow_id, self._ack_seq, ACK_BYTES, at_s,
            True, packet.seq, packet.sent_time, at_s,
        )
        return ack, flow.rev_dst

    def receive_ff(self, packet: Packet, at_s: float) -> None:
        """Collapsed delivery at virtual time ``at_s`` (hybrid fidelity).

        Runs :meth:`receive_at`'s bookkeeping, sends the ACK through the
        reverse link analytically, and schedules the *one* real event of
        the collapsed chain: the ACK arriving back at the sender.  Only
        reachable for unbounded flows without a delivery callback (see
        ``fidelity.activate_fastforward``).
        """
        flow = self.flow
        sim = flow.sim
        ack, _ = self.receive_at(packet, at_s)
        # The skipped data-delivery dispatch, whether or not the ACK
        # also survives the reverse link.
        sim.events_virtual += 1
        ack_at = flow.rev_link.send_ff(ack, at_s)
        if ack_at is not None:
            # Inlined schedule_fast_at: ack_at >= at_s >= sim.now (link
            # delivery times never precede the send), so the past-time
            # clamp can never trigger on this path.
            sim._seq += 1
            heapq.heappush(
                sim._heap,
                (ack_at, sim._seq, flow.sender.receive, (ack,), None),
            )
        if sim.tracer is not None:
            sim.tracer.record(
                (FF_COLLAPSE, at_s, flow.flow_id, None, "collapse", packet.seq, ack_at)
            )


class Flow:
    """One transport connection through the simulated network.

    Args:
        sim: The simulator.
        sender: Congestion-control sender (bound to this flow here).
        forward_path: Path carrying data packets.
        reverse_path: Path carrying ACKs.
        flow_id: Identifier recorded in packets and stats.
        size_bytes: Total bytes to deliver, or None for an unbounded bulk
            flow. Chunked applications use ``chunked=True`` + ``add_bytes``.
        chunked: Start with no data and let the application meter bytes in
            with :meth:`add_bytes`; the flow never auto-completes.
        start_time: Absolute simulated time at which the sender starts.
        on_complete: Callback fired once ``size_bytes`` are delivered.
        on_delivery: Callback ``(now, nbytes)`` for every delivered packet.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: SenderProtocol,
        forward_path: Path,
        reverse_path: Path,
        flow_id: int = 0,
        size_bytes: int | None = None,
        start_time: float = 0.0,
        chunked: bool = False,
        on_complete: Callable[["Flow", float], None] | None = None,
        on_delivery: Callable[[float, int], None] | None = None,
    ):
        if chunked and size_bytes is not None:
            raise ValueError("chunked flows meter data via add_bytes")
        self.sim = sim
        self.sender = sender
        self.forward_path = forward_path
        self.reverse_path = reverse_path
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        # Flows created mid-run (e.g. web objects) start immediately.
        self.start_time = max(start_time, sim.now)
        self.on_complete = on_complete
        self.on_delivery = on_delivery
        self.stats = FlowStats(flow_id)
        self.stats.start_time = self.start_time
        self.receiver = FlowReceiver(self)
        if sim.invariants is not None:
            sim.invariants.register_flow(self)
        self.completed = False
        self._next_seq = 0
        # Collapse flag; set by ``fidelity.activate_fastforward`` once the
        # whole flow set is known (eligibility is a property of every flow
        # sharing a link, not of one flow alone).
        self.ff_collapse = False
        # Both routes, resolved once: the first hop of each path and what
        # it delivers to; the ACK route ends on the sender itself.  For a
        # collapsed flow (single-hop by eligibility) they are *the* links.
        self.fwd_link, self.fwd_dst = forward_path.route(self.receiver)
        self.rev_link, self.rev_dst = reverse_path.route(sender)
        self.receiver.into = self.rev_link
        # Unbounded flows always have data; bounded/chunked flows meter it.
        if chunked:
            self.bytes_unsent: float = 0.0
        else:
            self.bytes_unsent = float("inf") if size_bytes is None else size_bytes

        sender.bind(sim, self)
        sim.schedule_at(self.start_time, self._start)

    # ------------------------------------------------------------------
    def _start(self) -> None:
        if not self.completed:
            self.sender.start()

    def add_bytes(self, nbytes: int) -> None:
        """Make ``nbytes`` more application data available to send."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self.bytes_unsent == float("inf"):
            raise RuntimeError("cannot add bytes to an unbounded flow")
        was_idle = self.bytes_unsent <= 0
        self.bytes_unsent += nbytes
        if was_idle:
            self.sender.on_data_available()

    def transmit(self, size_bytes: int) -> int:
        """Send one data packet of ``size_bytes``; returns its seq.

        A first-hop drop is not reported: the sender tracks the sequence
        number and detects the drop like any other loss (via the ACK gap).
        """
        self._next_seq += 1
        seq = self._next_seq
        self.stats.packets_sent += 1
        if self.bytes_unsent != _INF:
            self.bytes_unsent -= size_bytes
        self.fwd_link.send(
            Packet(self.flow_id, seq, size_bytes, self.sim.now), self.fwd_dst
        )
        return seq

    def transmit_ff(self, size_bytes: int, at_s: float) -> int:
        """Collapsed transmit at virtual time ``at_s``.

        Sends the data packet analytically through the (single-link)
        forward path and runs the receiver + ACK chain inline; the only
        heap event of the whole round trip is the ACK arriving back at
        the sender.  A send at the real clock takes :meth:`transmit`
        instead, whose deliveries then walk wherever exact mode allows
        (:meth:`~repro.sim.link.LinkBase.forward`), in three cases: a
        delivery into the reverse link is still on the heap (ACKs must
        keep entering it in delivery order); the round trip would cross
        a link's fast-forward barrier (pending timeline event); in exact
        mode, a link needs per-packet decisions (loss, noise, an
        outage).  A delivery past the current ``run(until=...)`` goes
        through the forward door, never absorbed.

        For healthy static links with no tracer attached the whole
        chain — both link legs, the receiver bookkeeping, and the ACK
        scheduling — is fused inline below with no intermediate packet
        object.  It is the one inlined specialisation of
        ``Link._admit`` + ``FlowReceiver.receive_at``; the
        traced-vs-untraced and exact-vs-hybrid digest tests pin them
        together.

        Returns the seq exactly like :meth:`transmit`.
        """
        sim = self.sim
        now = sim.now
        fwd = self.fwd_link
        rev = self.rev_link
        fused = (
            sim.tracer is None
            and fwd.loss_model is None
            and fwd.noise is None
            and fwd.loss_rate == 0.0  # repro: noqa[no-float-eq] — gate, not math
            and not fwd._down
            and rev.loss_model is None
            and rev.noise is None
            and rev.loss_rate == 0.0  # repro: noqa[no-float-eq] — gate, not math
            and not rev._down
        )
        limit = fwd.ff_barrier_s
        if rev.ff_barrier_s < limit:
            limit = rev.ff_barrier_s
        if at_s <= now and (
            rev.chain_pending >= now
            or not (fused or sim.fidelity.hybrid)
            or (
                limit != _INF
                and fwd.peek_round_trip_ff(size_bytes, at_s, rev, ACK_BYTES) + 1e-6 >= limit
            )
        ):
            return self.transmit(size_bytes)
        self._next_seq += 1
        seq = self._next_seq
        stats = self.stats
        stats.packets_sent += 1
        if self.bytes_unsent != _INF:
            self.bytes_unsent -= size_bytes
        if fused:
            # ---- forward leg (Link._admit, inlined) ----
            fwd_stats = fwd.stats
            fwd_stats.offered += 1
            bw = fwd.bandwidth_bps
            busy = fwd._busy_until
            occupancy = (
                (busy - at_s) * bw / 8.0 if busy > at_s else 0.0
            ) + size_bytes
            if occupancy > fwd.buffer_bytes + 1e-6:
                fwd_stats.tail_drops += 1
                return seq
            if occupancy > fwd_stats.max_backlog_bytes:
                fwd_stats.max_backlog_bytes = occupancy
            start = busy if busy > at_s else at_s
            fwd._busy_until = busy = start + size_bytes * 8.0 / bw
            deliver_at = busy + fwd.delay_s
            if deliver_at <= fwd._last_delivery:
                deliver_at = fwd._last_delivery + 1e-9
            fwd._last_delivery = deliver_at
            fwd_stats.delivered += 1
            if deliver_at > sim.horizon:
                fwd.forward(
                    Packet(self.flow_id, seq, size_bytes, at_s), self.fwd_dst, deliver_at
                )
                return seq
            # ---- receiver bookkeeping (receive_at, inlined) ----
            stats.delivered_bytes += size_bytes
            if stats.first_delivery is None:
                stats.first_delivery = deliver_at
            stats.last_delivery = deliver_at
            receiver = self.receiver
            receiver._ack_seq += 1
            # The skipped data-delivery dispatch, whether or not the ACK
            # also survives the reverse link.
            sim.events_virtual += 1
            # ---- reverse (ACK) leg ----
            rev_stats = rev.stats
            rev_stats.offered += 1
            bw = rev.bandwidth_bps
            busy = rev._busy_until
            occupancy = (
                (busy - deliver_at) * bw / 8.0 if busy > deliver_at else 0.0
            ) + ACK_BYTES
            if occupancy > rev.buffer_bytes + 1e-6:
                rev_stats.tail_drops += 1
                return seq
            if occupancy > rev_stats.max_backlog_bytes:
                rev_stats.max_backlog_bytes = occupancy
            start = busy if busy > deliver_at else deliver_at
            rev._busy_until = busy = start + ACK_BYTES * 8.0 / bw
            ack_arrive = busy + rev.delay_s
            if ack_arrive <= rev._last_delivery:
                ack_arrive = rev._last_delivery + 1e-9
            rev._last_delivery = ack_arrive
            rev_stats.delivered += 1
            ack = Packet(
                self.flow_id, receiver._ack_seq, ACK_BYTES, deliver_at,
                True, seq, at_s, deliver_at,
            )
            # Inlined schedule_fast_at: ack_arrive >= at_s >= sim.now,
            # so the past-time clamp can never trigger on this path.
            sim._seq += 1
            heapq.heappush(
                sim._heap,
                (ack_arrive, sim._seq, self.sender.receive, (ack,), None),
            )
            return seq
        # Hybrid only: exact mode sends what it cannot fuse by transmit().
        packet = Packet(self.flow_id, seq, size_bytes, at_s)
        deliver_at = fwd.send_ff(packet, at_s)
        if deliver_at is not None:
            # Noise can carry the delivery past the noise-free estimate
            # the barrier check above used, and the reverse link must not
            # admit the ACK at or past its barrier.
            if deliver_at > sim.horizon or deliver_at >= rev.ff_barrier_s:
                fwd.forward(packet, self.fwd_dst, deliver_at)
            else:
                self.receiver.receive_ff(packet, deliver_at)
        return seq

    def requeue_bytes(self, nbytes: int) -> None:
        """Return lost bytes to the unsent pool (models retransmission)."""
        if self.bytes_unsent != float("inf"):
            self.bytes_unsent += nbytes

    def has_data(self) -> bool:
        return self.bytes_unsent > 0 and not self.completed

    def check_complete(self) -> None:
        if (
            not self.completed
            and self.size_bytes is not None
            and self.stats.delivered_bytes >= self.size_bytes
        ):
            self.completed = True
            self.stats.end_time = self.sim.now
            self.sender.stop()
            if self.on_complete is not None:
                self.on_complete(self, self.sim.now)
            self.release()

    def release(self) -> None:
        """Drop what only sending uses, so a finished flow frees itself.

        The sender loses its back-reference and the flow its receiver and
        forward route, which leaves no reference cycle through the flow:
        once its last packet in flight is delivered, reference counting
        frees the flow, its sender and its receiver.  The receiver keeps
        the flow, so a late delivery still counts and sends its ACK.
        Runs when a bounded flow completes; the owner of a finished run
        calls it for every flow still alive.
        """
        self.sender.flow = None
        self.receiver = None
        self.fwd_dst = None
        if self.sim.invariants is not None:
            self.sim.invariants.release_flow(self)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently sent data packet."""
        return self._next_seq

    def base_rtt(self) -> float:
        """Propagation-only round-trip time of the flow's paths."""
        return self.forward_path.base_delay() + self.reverse_path.base_delay()

    def min_base_rtt(self) -> float:
        """Smallest propagation-only RTT over the run (see invariants)."""
        return (
            self.forward_path.min_base_delay()
            + self.reverse_path.min_base_delay()
        )
