"""Execution-fidelity model: packet-exact vs hybrid fast-forward.

The PCC architecture acts only at monitor-interval boundaries, so
packet-level fidelity *between* MI edges is usually wasted work: the
arrival process on a link is rate-stable until the next control decision,
timeline event, or queue transition.  The hybrid mode exploits that in
two ways (see ``docs/PERFORMANCE.md`` for the full model):

* **collapsed packet legs** — the data-delivery and ACK-delivery hops of
  an eligible flow are computed analytically at send time (the link's
  queue is already analytic, so the delivery timestamp is a closed-form
  expression) and only *one* engine event fires per packet: the ACK
  arriving back at the sender.  Byte counts, stats and timestamps match
  the packet-exact chain; what is lost is the interleaving of the
  intermediate hops with other same-window events.
* **paced-send bursts (fluid fast-forward)** — a rate-paced sender whose
  rate is provably stable up to a horizon (for PCC senders: the MI-close
  event) transmits a whole burst of future packets in one engine event,
  advancing link byte/backlog accounting analytically to the burst end.
  Each skip is documented by a ``sim.fastforward`` trace event.

Eligibility is conservative: any randomness on the path (loss, noise),
an outage, a pending timeline event inside the horizon, multi-hop paths,
bounded/chunked flows, or application delivery callbacks all force the
packet-exact path.  Packet-exact mode (``REPRO_FIDELITY=exact``, the
default) never enters any of these code paths and stays byte-identical
to the reference implementation.

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
        mode: ``"exact"`` (reference packet-level path everywhere) or
            ``"hybrid"`` (collapsed legs + paced bursts where eligible).
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

    Senders that support paced bursts (``ff_supports_burst``) are armed
    as a side effect.  No-op (returns 0) in packet-exact mode.
    """
    if not sim.fidelity.hybrid:
        return 0
    flows = list(flows)

    def capable(flow) -> bool:
        return (
            flow.bytes_unsent == float("inf")
            and flow.on_delivery is None
            and not flow.completed
            and len(flow.forward_path.links) == 1
            and len(flow.reverse_path.links) == 1
            and all(
                getattr(link, "can_fastforward", False)
                for link in (*flow.forward_path.links, *flow.reverse_path.links)
            )
        )

    caps = {id(f): capable(f) for f in flows}
    users: dict[int, list] = {}
    for f in flows:
        for link in (*f.forward_path.links, *f.reverse_path.links):
            users.setdefault(id(link), []).append(f)
    link_ok = {lid: all(caps[id(f)] for f in fl) for lid, fl in users.items()}
    enabled = 0
    for f in flows:
        fwd_id = id(f.forward_path.links[0])
        rev_id = id(f.reverse_path.links[0])
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
