"""Execution-fidelity model: packet-exact vs hybrid fast-forward.

The PCC architecture acts only at monitor-interval boundaries, so
packet-level fidelity *between* MI edges is usually wasted work: the
arrival process on a link is rate-stable until the next control decision,
timeline event, or queue transition.  Three mechanisms exploit that (see
``docs/PERFORMANCE.md`` for the full model):

* **the walk** (exact mode) — a link every packet of which comes
  through one upstream link admits packets in that upstream's order, so
  its admission of a packet can be computed the moment the upstream
  admits it.  Each hop into such a *walkable* link then costs no engine
  event: the link's delivery handler runs ahead of the clock at the
  delivery time (``LinkBase.forward``).  A clean single-hop flow whose
  reverse link is walkable from its forward link fuses its whole round
  trip inline (``Flow.transmit_ff``), so only the ACK arriving back at
  the sender fires.  Byte counts, stats, timestamps, random draws and
  link counters match the event chain; each skipped dispatch is counted
  in ``events_virtual``.
* **collapsed round trips** (hybrid) — the same fused round trip, also
  on links with loss or noise and on reverse links fed by several
  forward links, where it approximates the chain.
* **paced-send bursts (fluid fast-forward)** (hybrid only) — a
  rate-paced sender whose rate is provably stable up to a horizon (for
  PCC senders: the MI-close event) transmits a whole burst of future
  packets in one engine event, advancing link byte/backlog accounting
  analytically to the burst end.  Each skip is documented by a
  ``sim.fastforward`` trace event.

Packet-exact mode (``REPRO_FIDELITY=exact``, the default) walks only
where that is provably the event chain, so its results are
byte-identical to a traced run, which keeps every event.  One rule: a
link is walkable when it is an analytic ``Link`` and every packet it
can receive comes from exactly one upstream link.  Three guards on each
computed delivery time ``t`` into it push a normal event instead:
``t <= sim.horizon`` (a run split into legs stays exact),
``t < link.ff_barrier_s`` (no admission past a pending timeline step),
and ``link.chain_pending < sim.now`` (no delivery into the link is
still on the heap).  See :func:`activate_fastforward`.  That assumes no exact float tie
at a walked delivery, a walked ACK's arrival or a completion event: a
walked event takes its heap sequence number when it is computed, the
chain's when its predecessor fires, so an event scheduled in between
for the very same instant would swap order with it.  The differential
tests have found no such tie.  Hybrid's eligibility is conservative:
multi-hop paths, event-based links, bounded/chunked flows and
application delivery callbacks veto a flow, and a round trip that would
cross a pending timeline event or the end of the current
``run(until=...)`` takes the event chain.

Fidelity is part of every harness cache key: an exact and a hybrid run
of the same scenario are different experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

FIDELITY_MODES = ("exact", "hybrid")

BURST_PACKETS = 16
"""Upper bound on packets fast-forwarded per burst.

At 50 Mbps and 1500-byte packets a 16-packet burst spans ~3.8 ms —
comfortably inside one monitor interval (>= 10 ms), so rate staleness
within a burst is bounded well below one control decision.
"""

BURST_HORIZON_FRAC = 0.25
"""Burst horizon as a fraction of the sender's smoothed RTT.

Bounds how far ahead of other flows a bursting sender may virtually
advance the shared link state; the cross-flow serialization error of the
hybrid mode is at most this far."""

_SHARED_BURST_CAP = 4
"""Burst cap on links carrying more than one flow.

A burst pre-claims the link transmitter at virtual future times, so a
cross packet arriving mid-window queues behind the *whole* remaining
burst instead of interleaving by send time — each pre-claimed packet
inflates a competitor's queueing delay by up to one serialization time.
Long bursts therefore distort exactly the RTT signal the Proteus
competition detector feeds on (measured on the two-flow bench scenario
at 12 s: 16-packet bursts let the scavenger hold ~17 Mbps where
packet-exact yields to ~9; 4-packet bursts track the exact ensemble
mean within ~10% while keeping nearly all of the tick-absorption win).
Flows that are the *sole* user of both their links have nobody to
distort and burst to the full :data:`BURST_PACKETS`."""


@dataclass(frozen=True)
class Fidelity:
    """Resolved execution-fidelity configuration for one simulation.

    Args:
        mode: ``"exact"`` (the event chain's results everywhere; round
            trips collapse only where provably identical) or
            ``"hybrid"`` (collapsed round trips + paced bursts where
            eligible).
    """

    mode: str = "exact"

    def __post_init__(self) -> None:
        if self.mode not in FIDELITY_MODES:
            raise ValueError(
                f"unknown fidelity mode {self.mode!r}; expected one of {FIDELITY_MODES}"
            )

    @property
    def hybrid(self) -> bool:
        return self.mode == "hybrid"


EXACT = Fidelity(mode="exact")
HYBRID = Fidelity(mode="hybrid")


def activate_fastforward(sim, flows, observed=()) -> int:
    """Mark what may skip the event chain; returns the collapsed-flow count.

    Must be called after the *entire* flow set of a scenario exists:
    both rules below are properties of every flow sharing a link, not of
    one flow alone.  ``observed`` names links whose queue is read while
    the run is under way (a backlog sampler); they are never walked.

    **Exact mode** (untraced; a traced run *is* the event chain and
    skips nothing) follows one rule.  A link is *walkable* when it is an
    analytic ``Link`` and every packet it can receive comes from one
    upstream link: through a ``_Hop`` of some path, or through the
    receivers of flows whose last forward link it is.  That upstream
    delivers in FIFO order, so the link admits packets in the order the
    upstream admits them, and an admission can be computed at the
    moment the upstream's is (:meth:`~repro.sim.link.LinkBase.forward`
    walks it).  The walk pushes a normal event instead when one of three
    guards fails on the computed delivery time ``t``:

    * ``t <= sim.horizon``: a run split into legs stays exact;
    * ``t < link.ff_barrier_s``: no admission is carried past a pending
      timeline step on the link;
    * ``link.chain_pending < sim.now``: no delivery into the link still
      waits on the heap, so a walked packet never overtakes one.

    A receiver declines a delivery with an ``on_delivery`` callback, and
    the delivery that completes a bounded flow runs ``check_complete``
    as a real event at its delivery time.  A flow whose both paths are single
    links and whose reverse link is walkable from its forward link
    collapses its round trip (``ff_collapse``): ``Flow.transmit_ff``
    fuses it inline on clean links.  The result is the event chain's,
    byte for byte, given no exact float tie at a walked delivery or a
    completion event: a walked event takes its heap sequence number when
    it is computed, the chain's when its predecessor fires, so an event
    scheduled in between for the very same instant would swap order with
    it.

    **Hybrid mode** walks nothing.  A flow collapses when it is
    unbounded and not chunked, has no ``on_delivery`` callback, its
    forward and reverse paths are single analytic links, and **every**
    flow using those links is itself collapse-capable — a packet-exact
    flow sharing a link with collapsed traffic would see the link's
    transmitter pre-claimed at virtual future times.  Senders that
    support paced bursts (``ff_supports_burst``) are armed.
    """
    hybrid = sim.fidelity.hybrid
    flows = list(flows)
    walk = not hybrid and sim.tracer is None
    # Each link's single upstream link, or None when packets reach it
    # from a sender or from two links.
    upstream: dict[int, object] = {}
    links: dict[int, object] = {}

    def feeds(link, source) -> None:
        links[id(link)] = link
        if upstream.setdefault(id(link), source) is not source:
            upstream[id(link)] = None

    for f in flows:
        fwd = f.forward_path.links
        rev = f.reverse_path.links
        feeds(fwd[0], None)
        for source, link in zip((*fwd, *rev), (*fwd[1:], *rev)):
            feeds(link, source)
    blocked = {id(link) for link in observed}
    for lid, link in links.items():
        link.walkable = (
            walk
            and upstream[lid] is not None
            and lid not in blocked
            and getattr(link, "can_fastforward", False)
        )

    def eligible(flow) -> bool:
        return (
            flow.bytes_unsent == float("inf")
            and flow.on_delivery is None
            and not flow.completed
            and len(flow.forward_path.links) == 1
            and len(flow.reverse_path.links) == 1
            and getattr(flow.fwd_link, "can_fastforward", False)
        )

    if not hybrid:
        enabled = 0
        for f in flows:
            f.ff_collapse = ok = walk and eligible(f) and f.rev_link.walkable
            enabled += ok
        return enabled

    caps = {
        id(f): eligible(f) and getattr(f.rev_link, "can_fastforward", False)
        for f in flows
    }
    users: dict[int, list] = {}
    for f in flows:
        for link in (*f.forward_path.links, *f.reverse_path.links):
            users.setdefault(id(link), []).append(f)
    link_ok = {lid: all(caps[id(f)] for f in fl) for lid, fl in users.items()}
    enabled = 0
    for f in flows:
        fwd_id = id(f.fwd_link)
        rev_id = id(f.rev_link)
        ok = caps[id(f)] and link_ok[fwd_id] and link_ok[rev_id]
        f.ff_collapse = ok
        if ok:
            enabled += 1
            if getattr(f.sender, "ff_supports_burst", False):
                f.sender.ff_burst_armed = True
                # Solo flows burst freely; shared links get the short
                # cap (see _SHARED_BURST_CAP) to bound the pre-claim
                # distortion of competing flows' queueing delay.
                solo = len(users[fwd_id]) == 1 and len(users[rev_id]) == 1
                f.sender.ff_burst_cap = BURST_PACKETS if solo else _SHARED_BURST_CAP
    return enabled


def resolve_fidelity(mode: "Fidelity | str | None" = None) -> Fidelity:
    """Resolve a fidelity request to a :class:`Fidelity` instance.

    ``None`` consults the ``REPRO_FIDELITY`` environment variable
    (``exact`` when unset), so whole suites and CI jobs can switch mode
    without threading an argument through every entry point.  A string
    names a mode; a :class:`Fidelity` passes through unchanged.
    """
    if isinstance(mode, Fidelity):
        return mode
    if mode is None:
        mode = os.environ.get("REPRO_FIDELITY", "").strip() or "exact"
    # Fidelity() rejects unknown names; hand back the shared singleton.
    return HYBRID if Fidelity(mode).hybrid else EXACT
