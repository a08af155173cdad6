"""Topology graphs.

The paper's transport experiments all run over a single bottleneck
(:class:`Dumbbell`).  The general model here is
:class:`Topology` — a directed graph of named nodes connected by links
(analytic :class:`~repro.sim.link.Link` or event-based
:class:`~repro.sim.aqm.DynamicLink` with a per-hop queue discipline)
with static shortest-hop routing — on which a flow's
:class:`~repro.sim.flow.Path` may traverse several potentially-congested
hops.

:meth:`Topology.add_link` is the one place a topology's links are
made, and the one place a link class is chosen; a caller that builds a
link by hand registers it with :meth:`Topology.attach_link`.  The
multi-hop presets (parking lot, shared core) are builders in
:class:`~repro.harness.scenarios.TopologySpec` that call ``add_link``
on a plain :class:`Topology`; :class:`Dumbbell` stays a class for the
classic single shared bottleneck plus an uncongested reverse path.

Routing is deterministic: breadth-first shortest hop count with ties
broken by link insertion order, overridable per (src, dst) pair with
:meth:`Topology.set_route`.  Every link is tagged with its source node
(``link.node``), which all ``link.*`` trace events carry as the hop tag.
"""

from __future__ import annotations

from typing import Sequence

from .aqm import DynamicLink, QueueDiscipline
from .engine import Simulator
from .flow import Flow, Path
from .link import Link
from .noise import NoiseModel
from ..core.rng import Rng, spawn


def mbps(value: float) -> float:
    """Convert megabits/s to bits/s."""
    return value * 1e6


class TopologyError(ValueError):
    """Malformed topology: unknown nodes, duplicate links, or no route."""


class Topology:
    """Directed graph of nodes and links with static routing.

    Args:
        sim: Simulator instance.
        rng: Seeded RNG; :meth:`add_link` spawns a child per link,
            labelled with the link name, for its loss/noise draws (a
            link built by hand and attached brings its own).

    Nodes are created implicitly by :meth:`add_link` /
    :meth:`attach_link`; both directions of a bidirectional hop are
    separate links.  ``links`` maps link name to link in insertion order
    (the canonical iteration order for metrics and conservation sweeps)
    and plugs directly into
    :class:`~repro.sim.dynamics.TimelineDriver`.
    """

    def __init__(self, sim: Simulator, rng: Rng | None = None):
        self.sim = sim
        self.rng = rng if rng is not None else Rng(0)
        self.nodes: list[str] = []
        self.links: dict[str, object] = {}
        self._adj: dict[str, list[tuple[str, object]]] = {}
        self._route_overrides: dict[tuple[str, str], list] = {}
        self._path_cache: dict[tuple[str, str], Path] = {}
        self._flow_count = 0
        # The link scenario samplers/summaries watch by default: the
        # first link attached, unless a builder points it elsewhere.
        self.monitor: object | None = None
        # Nodes that flows without explicit endpoints round-robin over
        # by flow index; empty means the first-added node.
        self.sources: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        """Register ``name`` (idempotent) and return it."""
        if name not in self._adj:
            self._adj[name] = []
            self.nodes.append(name)
        return name

    def attach_link(self, src: str, dst: str, link) -> object:
        """Register an externally built link as the edge ``src -> dst``."""
        if link.name in self.links:
            raise TopologyError(f"duplicate link name {link.name!r}")
        self.add_node(src)
        self.add_node(dst)
        self.links[link.name] = link
        self._adj[src].append((dst, link))
        link.node = src
        self._path_cache.clear()
        if self.monitor is None:
            self.monitor = link
        return link

    def add_link(
        self,
        src: str,
        dst: str,
        *,
        bandwidth_bps: float,
        delay_s: float,
        buffer_bytes: float = float("inf"),
        discipline: QueueDiscipline | None = None,
        loss_rate: float = 0.0,
        noise: NoiseModel | None = None,
        name: str | None = None,
    ) -> object:
        """Create and attach the edge ``src -> dst``.

        A ``discipline`` makes the hop an event-based
        :class:`~repro.sim.aqm.DynamicLink` (per-packet queue, AQM);
        otherwise it is the analytic tail-drop
        :class:`~repro.sim.link.Link`.
        """
        if name is None:
            name = f"{src}->{dst}"
        rng = spawn(self.rng, name)
        if discipline is not None:
            link = DynamicLink(
                self.sim,
                rate_bps=bandwidth_bps,
                delay_s=delay_s,
                discipline=discipline,
                loss_rate=loss_rate,
                noise=noise,
                rng=rng,
                name=name,
            )
        else:
            link = Link(
                self.sim,
                bandwidth_bps=bandwidth_bps,
                delay_s=delay_s,
                buffer_bytes=buffer_bytes,
                loss_rate=loss_rate,
                noise=noise,
                rng=rng,
                name=name,
            )
        return self.attach_link(src, dst, link)

    def set_route(self, src: str, dst: str, via: Sequence[str]) -> None:
        """Pin the ``src -> dst`` route to the node sequence ``via``.

        ``via`` must start at ``src``, end at ``dst``, and every
        consecutive pair must be joined by a link (first-inserted link
        wins between parallel edges).
        """
        hops = list(via)
        if len(hops) < 2 or hops[0] != src or hops[-1] != dst:
            raise TopologyError(
                f"route for {src!r}->{dst!r} must run from {src!r} to {dst!r}"
            )
        links = [self._edge(a, b) for a, b in zip(hops, hops[1:])]
        self._route_overrides[(src, dst)] = links
        self._path_cache.pop((src, dst), None)

    def _edge(self, src: str, dst: str):
        for neighbor, link in self._adj.get(src, ()):
            if neighbor == dst:
                return link
        raise TopologyError(f"no link {src!r} -> {dst!r}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_links(self, src: str, dst: str) -> list:
        """The link sequence from ``src`` to ``dst`` (override or BFS)."""
        if src not in self._adj or dst not in self._adj:
            missing = src if src not in self._adj else dst
            raise TopologyError(f"unknown node {missing!r}")
        if src == dst:
            raise TopologyError(f"route endpoints coincide: {src!r}")
        override = self._route_overrides.get((src, dst))
        if override is not None:
            return list(override)
        # Breadth-first shortest hop count.  Frontier and adjacency are
        # insertion-ordered lists, so the predecessor tree — and with it
        # the chosen route — is deterministic.
        prev: dict[str, tuple[str, object] | None] = {src: None}
        frontier = [src]
        while frontier and dst not in prev:
            nxt: list[str] = []
            for node in frontier:
                for neighbor, link in self._adj[node]:
                    if neighbor not in prev:
                        prev[neighbor] = (node, link)
                        nxt.append(neighbor)
            frontier = nxt
        if dst not in prev:
            raise TopologyError(f"no route from {src!r} to {dst!r}")
        links: list = []
        node = dst
        while node != src:
            parent, link = prev[node]  # type: ignore[misc]
            links.append(link)
            node = parent
        links.reverse()
        return links

    def path(self, src: str, dst: str) -> Path:
        """Routed :class:`~repro.sim.flow.Path` from ``src`` to ``dst``."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = Path(self.route_links(src, dst))
            self._path_cache[key] = cached
        return cached

    def default_endpoints(self, index: int) -> tuple[str, str]:
        """Endpoints for the ``index``-th flow when none are given.

        The source is ``sources[index % len(sources)]`` when a builder
        set ``sources`` (the shared core round-robins its access
        groups), else the first-added node; the sink is the last-added
        node.
        """
        if len(self.nodes) < 2:
            raise TopologyError("topology has no flow endpoints yet")
        sources = self.sources or self.nodes[:1]
        return sources[index % len(sources)], self.nodes[-1]

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    def add_flow(
        self,
        sender,
        src: str | None = None,
        dst: str | None = None,
        flow_id: int | None = None,
        **options,
    ) -> Flow:
        """Attach a sender between ``src`` and ``dst`` and return its Flow.

        The reverse (ACK) path is routed independently from ``dst`` back
        to ``src``.  Omitted endpoints fall back to
        :meth:`default_endpoints` for this flow's index.  ``options``
        (``size_bytes``, ``start_time``, ``chunked``, ``on_complete``,
        ``on_delivery``) go to :class:`~repro.sim.flow.Flow`.
        """
        if src is None or dst is None:
            default_src, default_dst = self.default_endpoints(self._flow_count)
            src = src if src is not None else default_src
            dst = dst if dst is not None else default_dst
        return self._flow(sender, src, dst, flow_id, options)

    def _flow(self, sender, src: str, dst: str, flow_id: int | None, options) -> Flow:
        """Build the routed Flow; ``flow_id`` defaults to its 1-based index."""
        self._flow_count += 1
        return Flow(
            self.sim,
            sender,
            self.path(src, dst),
            self.path(dst, src),
            flow_id=self._flow_count if flow_id is None else flow_id,
            **options,
        )

    def close(self) -> None:
        """End the network's life: drop its pending events and back-references.

        What is left is a finished record: the links, their stats and
        queue counts (:meth:`assert_conservation` still holds) and the
        simulator's clock and event counters.  It cannot be resumed.
        Flows are not the topology's; their owner releases them
        (``Flow.release``).
        """
        self.sim.close()
        for link in self.links.values():
            link.close()

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def iter_links(self):
        """Links in insertion order (deterministic metrics/report order)."""
        return self.links.values()

    def assert_conservation(self) -> None:
        """Raise if any hop leaks packets (offered != accounted-for)."""
        for link in self.links.values():
            stats = link.stats
            accounted = stats.accounted(link.queued_packets())
            if stats.offered != accounted:
                raise TopologyError(
                    f"packet conservation violated on hop {link.name!r} "
                    f"(node {link.node!r}): offered={stats.offered} "
                    f"!= accounted={accounted}"
                )


class Dumbbell(Topology):
    """Single shared bottleneck plus an uncongested reverse path.

    Every flow runs ``src -> dst`` over the bottleneck; a flow that needs
    more propagation delay than the others needs its own access hop, on
    a :class:`Topology`.

    Args:
        sim: Simulator instance.
        bandwidth_bps: Bottleneck rate.
        rtt_s: Base round-trip propagation time; split evenly between the
            forward bottleneck and the reverse path.
        buffer_bytes: Bottleneck tail-drop buffer (a ``discipline``
            holds its own).
        loss_rate: Random loss probability on the bottleneck.
        noise: Optional forward-direction latency noise.
        reverse_noise: Optional ACK-direction latency noise (WiFi uplink
            experiments apply noise both ways).
        rng: Seeded RNG; children are spawned for each stochastic element.
        discipline: Queue discipline for the bottleneck, making it an
            event-based :class:`~repro.sim.aqm.DynamicLink` (see
            :meth:`Topology.add_link`); ``None`` keeps the analytic
            tail-drop :class:`~repro.sim.link.Link`.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        rtt_s: float,
        buffer_bytes: float,
        loss_rate: float = 0.0,
        noise: NoiseModel | None = None,
        reverse_noise: NoiseModel | None = None,
        rng: Rng | None = None,
        discipline: QueueDiscipline | None = None,
    ):
        super().__init__(sim, rng=rng)
        self.bottleneck = self.add_link(
            "src",
            "dst",
            bandwidth_bps=bandwidth_bps,
            delay_s=rtt_s / 2.0,
            buffer_bytes=buffer_bytes,
            discipline=discipline,
            loss_rate=loss_rate,
            noise=noise,
            name="bottleneck",
        )
        # The reverse path is fast and deep enough never to be the
        # constraint: ACK traffic is ~3% of data traffic by bytes.
        self.reverse = self.add_link(
            "dst",
            "src",
            bandwidth_bps=bandwidth_bps * 40.0,
            delay_s=rtt_s / 2.0,
            noise=reverse_noise,
            name="reverse",
        )

    def add_flow(
        self,
        sender,
        src: str | None = None,
        dst: str | None = None,
        flow_id: int | None = None,
        **options,
    ) -> Flow:
        """Attach a sender across the bottleneck (the one route, src -> dst)."""
        if src not in (None, "src") or dst not in (None, "dst"):
            raise TopologyError(
                f"Dumbbell flows run src -> dst; got {src!r} -> {dst!r}"
            )
        return self._flow(sender, "src", "dst", flow_id, options)
