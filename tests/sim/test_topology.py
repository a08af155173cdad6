"""Unit tests for topology building and multi-hop paths."""

import pytest

from repro.harness import LinkConfig, TopologySpec
from repro.protocols import CubicSender, FixedRateSender, make_sender
from repro.sim import (
    CoDelDiscipline,
    Dumbbell,
    DynamicLink,
    Link,
    Packet,
    Path,
    Simulator,
    Topology,
    TopologyError,
    make_rng,
    mbps,
)


def test_mbps_helper():
    assert mbps(50.0) == 50e6


def test_dumbbell_reverse_path_never_bottlenecks():
    sim = Simulator()
    dumbbell = Dumbbell(sim, mbps(10.0), 0.020, 200e3, rng=make_rng(1))
    flow = dumbbell.add_flow(FixedRateSender(rate_bps=mbps(9.0)))
    sim.run(until=5.0)
    # ACK path is 40x the bottleneck: no reverse-direction drops.
    assert dumbbell.reverse.stats.tail_drops == 0
    assert flow.stats.throughput_bps(2.0, 5.0) / 1e6 == pytest.approx(9.0, rel=0.05)


def test_flow_ids_autoassigned_and_unique():
    sim = Simulator()
    dumbbell = Dumbbell(sim, mbps(10.0), 0.020, 200e3, rng=make_rng(1))
    a = dumbbell.add_flow(FixedRateSender(rate_bps=mbps(1.0)))
    b = dumbbell.add_flow(FixedRateSender(rate_bps=mbps(1.0)))
    assert a.flow_id != b.flow_id


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet.seq))


def test_multi_hop_path_sums_delays():
    sim = Simulator()
    links = [
        Link(sim, bandwidth_bps=8e6, delay_s=0.010),
        Link(sim, bandwidth_bps=8e6, delay_s=0.020),
        Link(sim, bandwidth_bps=8e6, delay_s=0.005),
    ]
    path = Path(links)
    assert path.base_delay() == pytest.approx(0.035)
    sink = _Sink(sim)
    link, dst = path.route(sink)
    link.send(Packet(1, 1, size_bytes=1000), dst)
    sim.run()
    # 3 serializations of 1 ms each + 35 ms propagation.
    assert sink.arrivals[0][0] == pytest.approx(0.038)


def test_multi_hop_path_bottleneck_governs_rate():
    sim = Simulator()
    fast = Link(sim, bandwidth_bps=80e6, delay_s=0.0)
    slow = Link(sim, bandwidth_bps=8e6, delay_s=0.0)
    path = Path([fast, slow])
    sink = _Sink(sim)
    link, dst = path.route(sink)
    for seq in range(10):
        link.send(Packet(1, seq, size_bytes=1000), dst)
    sim.run()
    # Delivery spacing set by the slow hop: 1 ms per packet.
    times = [t for t, _ in sink.arrivals]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(0.001, rel=0.01) for g in gaps)


def test_route_matches_hop_by_hop_sending_and_reports_first_hop_drops():
    def build(sim):
        return [
            Link(sim, bandwidth_bps=8e6, delay_s=0.010, buffer_bytes=3000),
            Link(sim, bandwidth_bps=4e6, delay_s=0.020, buffer_bytes=1500),
            Link(sim, bandwidth_bps=8e6, delay_s=0.005),
        ]

    class Relay:
        def __init__(self, receive):
            self.receive = receive

    def offer(link, dst):
        return [link.send(Packet(1, seq, size_bytes=1000), dst) for seq in range(6)]

    routed_sim = Simulator()
    routed_links = build(routed_sim)
    routed_sink = _Sink(routed_sim)
    routed = offer(*Path(routed_links).route(routed_sink))
    routed_sim.run()

    sim = Simulator()
    first, second, third = links = build(sim)
    sink = _Sink(sim)
    to_third = Relay(lambda packet: third.send(packet, sink))
    by_hand = offer(first, Relay(lambda packet: second.send(packet, to_third)))
    sim.run()

    # The first hop holds three packets; the return value says so.  The
    # slower second hop drops one more, which no sender-side call sees.
    assert routed == by_hand == [True, True, True, False, False, False]
    assert routed_sink.arrivals == sink.arrivals
    assert [seq for _, seq in sink.arrivals] == [0, 1]
    fields = ("offered", "delivered", "tail_drops", "max_backlog_bytes")
    per_hop = [
        [[getattr(link.stats, f) for f in fields] for link in hops]
        for hops in (routed_links, links)
    ]
    assert per_hop[0] == per_hop[1]
    assert [row[:3] for row in per_hop[0]] == [[6, 3, 3], [3, 2, 1], [2, 2, 0]]


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        Path([])


# ----------------------------------------------------------------------
# Topology graph: construction, routing, auditing
# ----------------------------------------------------------------------
def _diamond(sim):
    """a -> {b, c} -> d with the b branch inserted first."""
    topo = Topology(sim, rng=make_rng(1))
    for src, dst in (("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")):
        topo.add_link(src, dst, bandwidth_bps=mbps(10.0), delay_s=0.001)
    return topo


def test_bfs_routing_prefers_first_inserted_links():
    topo = _diamond(Simulator())
    names = [link.name for link in topo.route_links("a", "d")]
    assert names == ["a->b", "b->d"]


def test_route_override_pins_the_path():
    topo = _diamond(Simulator())
    topo.set_route("a", "d", ["a", "c", "d"])
    assert [link.name for link in topo.route_links("a", "d")] == ["a->c", "c->d"]
    # Only the overridden direction/pair is affected.
    assert [link.name for link in topo.route_links("a", "b")] == ["a->b"]


def test_route_override_validation():
    topo = _diamond(Simulator())
    with pytest.raises(TopologyError):
        topo.set_route("a", "d", ["a", "b"])  # does not end at dst
    with pytest.raises(TopologyError):
        topo.set_route("a", "d", ["a", "d"])  # no direct a->d link


def test_routing_error_cases():
    topo = _diamond(Simulator())
    with pytest.raises(TopologyError):
        topo.route_links("a", "nowhere")
    with pytest.raises(TopologyError):
        topo.route_links("a", "a")
    # d has no outgoing links: unreachable in the reverse direction.
    with pytest.raises(TopologyError):
        topo.route_links("d", "a")


def test_duplicate_link_name_rejected():
    sim = Simulator()
    topo = Topology(sim, rng=make_rng(1))
    topo.add_link("a", "b", bandwidth_bps=mbps(1.0), delay_s=0.0, name="x")
    with pytest.raises(TopologyError):
        topo.add_link("b", "a", bandwidth_bps=mbps(1.0), delay_s=0.0, name="x")


def test_links_tagged_with_source_node():
    topo = _diamond(Simulator())
    assert topo.links["a->b"].node == "a"
    assert topo.links["c->d"].node == "c"


def test_path_objects_are_cached_until_topology_changes():
    topo = _diamond(Simulator())
    first = topo.path("a", "d")
    assert topo.path("a", "d") is first
    topo.add_link("a", "d", bandwidth_bps=mbps(10.0), delay_s=0.0)
    assert topo.path("a", "d") is not first  # new direct link wins BFS


def test_dumbbell_is_a_topology_graph():
    sim = Simulator()
    dumbbell = Dumbbell(sim, mbps(50.0), 0.030, 375e3, rng=make_rng(1))
    assert list(dumbbell.links) == ["bottleneck", "reverse"]
    assert dumbbell.path("src", "dst").links == (dumbbell.bottleneck,)
    assert dumbbell.path("dst", "src").links == (dumbbell.reverse,)
    assert dumbbell.monitor is dumbbell.bottleneck


def _preset(sim, buffer_kb, loss_rate=0.0, **spec):
    config = LinkConfig(
        bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=buffer_kb, loss_rate=loss_rate
    )
    return TopologySpec(**spec).build(sim, config, make_rng(1))


def test_parking_lot_structure_and_cross_flow_validation():
    sim = Simulator()
    lot = _preset(sim, 250.0, preset="parking-lot", n_hops=3)
    assert [link.name for link in lot.route_links("n0", "n3")] == [
        "hop0", "hop1", "hop2"
    ]
    # Long-flow base RTT equals the configured rtt_s.
    fwd = lot.path("n0", "n3").base_delay()
    rev = lot.path("n3", "n0").base_delay()
    assert fwd + rev == pytest.approx(0.030)
    with pytest.raises(TopologyError):
        lot.add_flow(CubicSender(), "n3", "n4")  # no hop 3


def test_parking_lot_conservation_under_cross_traffic():
    sim = Simulator()
    lot = _preset(sim, 100.0, loss_rate=0.01, preset="parking-lot", n_hops=3)
    lot.add_flow(make_sender("proteus-s", seed=1))
    lot.add_flow(make_sender("cubic", seed=2), "n1", "n2")  # cross hop 1
    sim.run(until=8.0)
    lot.assert_conservation()
    # Hop 1 carries both flows: it is the contended one.
    assert lot.links["hop1"].stats.offered > lot.links["hop2"].stats.offered


def test_parking_lot_aqm_hops_are_dynamic_links():
    sim = Simulator()
    lot = _preset(sim, 250.0, preset="parking-lot", n_hops=2, aqm="codel")
    assert isinstance(lot.links["hop0"], DynamicLink)
    assert isinstance(lot.links["hop1"], DynamicLink)
    # One fresh discipline per hop — AQM state is never shared.
    assert isinstance(lot.links["hop0"].discipline, CoDelDiscipline)
    assert isinstance(lot.links["hop1"].discipline, CoDelDiscipline)
    assert lot.links["hop0"].discipline is not lot.links["hop1"].discipline
    # Reverse links stay analytic: ACKs need no AQM.
    assert isinstance(lot.links["rev0"], Link)


def test_multi_dumbbell_round_robins_default_endpoints():
    sim = Simulator()
    net = _preset(sim, 250.0, preset="multi-dumbbell", n_hops=3, core_mbps=30.0)
    assert net.default_endpoints(0) == ("s0", "sink")
    assert net.default_endpoints(4) == ("s1", "sink")
    # Every flow crosses its access link and the shared core.
    names = [link.name for link in net.route_links("s2", "sink")]
    assert names == ["access2", "core"]
    assert net.monitor is net.links["core"]


def test_multi_dumbbell_conservation():
    sim = Simulator()
    net = _preset(sim, 100.0, preset="multi-dumbbell", n_hops=2, core_mbps=25.0)
    net.add_flow(make_sender("cubic", seed=1))
    net.add_flow(make_sender("cubic", seed=2))
    sim.run(until=6.0)
    net.assert_conservation()
    core = net.links["core"].stats
    assert core.offered > 0


def test_conservation_failure_names_the_hop():
    sim = Simulator()
    topo = Topology(sim, rng=make_rng(1))
    link = topo.add_link("a", "b", bandwidth_bps=mbps(10.0), delay_s=0.0)
    link.stats.offered = 1  # cooked books
    with pytest.raises(TopologyError, match="a->b"):
        topo.assert_conservation()
