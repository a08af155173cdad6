"""Execution-fidelity model: packet-exact vs hybrid fast-forward.

The PCC architecture acts only at monitor-interval boundaries, so
packet-level fidelity *between* MI edges is usually wasted work: the
arrival process on a link is rate-stable until the next control decision,
timeline event, or queue transition.  Two mechanisms exploit that (see
``docs/PERFORMANCE.md`` for the full model):

* **collapsed round trips** (both modes) — the data-delivery and
  ACK-delivery hops of an eligible flow are computed analytically at
  send time (the link's queue is already analytic, so the delivery
  timestamp is a closed-form expression) and only *one* engine event
  fires per packet: the ACK arriving back at the sender.  Byte counts,
  stats, timestamps and link counters match the event chain; the
  skipped delivery dispatch is counted in ``events_virtual``.
* **paced-send bursts (fluid fast-forward)** (hybrid only) — a
  rate-paced sender whose rate is provably stable up to a horizon (for
  PCC senders: the MI-close event) transmits a whole burst of future
  packets in one engine event, advancing link byte/backlog accounting
  analytically to the burst end.  Bursts are the one thing hybrid adds,
  and its one approximation.  Each skip is documented by a
  ``sim.fastforward`` trace event.

Eligibility is conservative: multi-hop paths, event-based links,
bounded/chunked flows and application delivery callbacks veto a flow,
and a round trip that would cross a pending timeline event or the end
of the current ``run(until=...)``, or meet loss, noise or an outage,
takes the event chain.  Packet-exact mode (``REPRO_FIDELITY=exact``, the
default) collapses only where that is provably identical to the event
chain (:func:`activate_fastforward`), so its results are byte-identical
to a traced run, which keeps every event.  That assumes no exact float
tie at an ACK's arrival time: a collapsed ACK takes its heap sequence
number at send time, the chain's at delivery time, so an event
scheduled in between for the very same instant would swap order with
it.  The differential tests have found no such tie.

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

    def key(self) -> dict:
        """Canonical cache-key payload.  The burst constants above are
        source, which the cache key's source-tree digest already covers."""
        return {"mode": self.mode}


EXACT = Fidelity(mode="exact")
HYBRID = Fidelity(mode="hybrid")


def activate_fastforward(sim, flows) -> int:
    """Enable collapsed sends for every eligible flow; returns the count.

    Must be called after the *entire* flow set of a scenario exists:
    eligibility is a property of all flows sharing a link, not of one
    flow alone.  A flow may collapse when

    * it is unbounded and not chunked (no completion bookkeeping rides
      on delivery timing) and has no ``on_delivery`` callback,
    * its forward and reverse paths are single-hop and every link on
      them supports the analytic collapse (``can_fastforward`` — true
      for the analytic ``Link``, false for the event-based
      ``DynamicLink``, whose explicit queue cannot be advanced in
      closed form), and
    * **every** flow using its links is itself collapse-capable — a
      packet-exact flow sharing a link with collapsed traffic would see
      the link's transmitter pre-claimed at virtual future times,
      distorting its queueing in a way packet-exact mode never would.

    Exact mode collapses only where the result is provably the event
    chain's, so it adds three rules: no tracer is attached (a traced
    exact run *is* the event chain), neither link draws randomness (loss
    or noise) at activation, and every ACK on a reverse link comes
    through one forward link and nothing else sends on it — that link's
    FIFO guard then admits ACKs in the order the chain would.  Senders
    that support paced bursts (``ff_supports_burst``) are armed in
    hybrid mode only.
    """
    hybrid = sim.fidelity.hybrid
    if sim.tracer is not None and not hybrid:
        return 0
    flows = list(flows)

    def capable(flow) -> bool:
        links = (*flow.forward_path.links, *flow.reverse_path.links)
        return (
            flow.bytes_unsent == float("inf")
            and flow.on_delivery is None
            and not flow.completed
            and len(flow.forward_path.links) == 1
            and len(flow.reverse_path.links) == 1
            and all(getattr(link, "can_fastforward", False) for link in links)
            and (
                hybrid
                or not any(
                    link.loss_rate > 0.0 or link.noise is not None or link.loss_model is not None
                    for link in links
                )
            )
        )

    caps = {id(f): capable(f) for f in flows}
    users: dict[int, list] = {}
    for f in flows:
        for link in (*f.forward_path.links, *f.reverse_path.links):
            users.setdefault(id(link), []).append(f)
    link_ok = {lid: all(caps[id(f)] for f in fl) for lid, fl in users.items()}
    if not hybrid:
        # What feeds each link: 0 for a sender, the forward link's id for
        # ACKs.  One linear pass; a link fed two ways is vetoed.
        fed_by: dict[int, int] = {}
        for f in flows:
            for link, feeder in ((f.fwd_link, 0), (f.rev_link, id(f.fwd_link))):
                if fed_by.setdefault(id(link), feeder) != feeder:
                    link_ok[id(link)] = False
    enabled = 0
    for f in flows:
        fwd_id = id(f.forward_path.links[0])
        rev_id = id(f.reverse_path.links[0])
        ok = caps[id(f)] and link_ok[fwd_id] and link_ok[rev_id]
        f.ff_collapse = ok
        if ok:
            enabled += 1
            if hybrid and getattr(f.sender, "ff_supports_burst", False):
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
