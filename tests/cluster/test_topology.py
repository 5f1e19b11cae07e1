"""Tests for the rack topology and its link-level gray failures.

The load-bearing property is pinned first: a single-rack
:class:`Topology` with default links is *bit-identical* to the flat
alpha-beta collective over its :class:`NetworkModel` on every cost
method (the oracle formulas below) — every cluster built without a
topology prices its collectives on that one rack.  Then multi-rack
pricing, per-link overrides, the transport's link gray-faults, and the
per-link straggler detector.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DEFAULT_CROSS_BYTE_FACTOR,
    DEFAULT_CROSS_LATENCY_FACTOR,
    LinkModel,
    DEFAULT_NETWORK,
    NetworkModel,
    ResilientTransport,
    Topology,
    make_cluster,
)
from repro.errors import SimulationError
from repro.fault import StragglerDetector

# -- spec parsing ------------------------------------------------------------


def test_parse_spec_rack():
    assert Topology.parse_spec("rack:2x4") == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert Topology.parse_spec("rack:1x1") == [[0]]
    assert Topology.parse_spec("rack:3x2") == [[0, 1], [2, 3], [4, 5]]


def test_parse_spec_flat():
    assert Topology.parse_spec("flat:4") == [[0, 1, 2, 3]]
    assert Topology.parse_spec("flat:1") == [[0]]


@pytest.mark.parametrize("bad", [
    "rack", "rack:", "rack:2", "rack:2x", "rack:x4", "rack:0x4",
    "rack:2x0", "rack:2x-1", "rack:axb", "flat:", "flat:0", "flat:-3",
    "mesh:2x2", "", "rack2x4",
])
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(SimulationError):
        Topology.parse_spec(bad)


def test_racks_must_cover_node_ids_exactly():
    with pytest.raises(SimulationError):
        Topology([[0, 1], [3]])          # gap
    with pytest.raises(SimulationError):
        Topology([[0, 1], [1, 2]])       # duplicate
    with pytest.raises(SimulationError):
        Topology([[0], []])              # empty rack
    with pytest.raises(SimulationError):
        Topology([])


def test_link_override_names_must_exist():
    with pytest.raises(SimulationError):
        Topology([[0, 1]], overrides={(0, 7): LinkModel(1.0, 1e-5)})


# -- single rack == the flat alpha-beta collective, bit-exactly --------------


def _hops(n):
    return math.ceil(math.log2(n)) if n > 1 else 0


def flat_sync_ms(net, n, nbytes):
    """Tree collective: ``ceil(log2)`` latency hops, the payload crossing
    the wire once, plus per-node coordination."""
    return (net.latency_ms * _hops(n) + nbytes * net.ms_per_byte
            + net.coord_ms_per_node * n)


def flat_broadcast_ms(net, n, nbytes):
    return net.latency_ms * _hops(n) + nbytes * net.ms_per_byte


def flat_transfer_ms(net, nbytes):
    return net.latency_ms + nbytes * net.ms_per_byte


def flat_p2p_fallback_ms(net, n, nbytes):
    """The master exchanges with every node in turn: one hop each."""
    return (net.latency_ms * n + nbytes * net.ms_per_byte
            + net.coord_ms_per_node * n)


NETS = [
    NetworkModel(),
    NetworkModel(latency_ms=0.5, ms_per_byte=3e-4, coord_ms_per_node=0.7),
    NetworkModel(latency_ms=0.0, ms_per_byte=0.0, coord_ms_per_node=0.0),
]


@pytest.mark.parametrize("net", NETS)
def test_single_rack_equals_network_model_grid(net):
    """Exhaustive: every cost method bit-identical across a small grid."""
    for n in range(1, 17):
        topo = Topology.from_spec(f"flat:{n}", base=net)
        assert not topo.uplinks_differ
        for nbytes in (0, 1, 17, 4096, 1_000_003):
            assert topo.sync_ms(n, nbytes) == flat_sync_ms(net, n, nbytes)
            assert (topo.broadcast_ms(n, nbytes)
                    == flat_broadcast_ms(net, n, nbytes))
            assert all(topo.fragment_ms(k, nbytes)
                       == flat_transfer_ms(net, nbytes) for k in range(n))
            assert (topo.p2p_fallback_ms(n, nbytes)
                    == flat_p2p_fallback_ms(net, n, nbytes))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 24), nbytes=st.integers(0, 10**9),
       latency=st.floats(0, 10, allow_nan=False),
       mspb=st.floats(0, 1e-2, allow_nan=False),
       coord=st.floats(0, 5, allow_nan=False))
def test_single_rack_equals_network_model_property(n, nbytes, latency,
                                                   mspb, coord):
    net = NetworkModel(latency_ms=latency, ms_per_byte=mspb,
                       coord_ms_per_node=coord)
    topo = Topology.from_spec(f"flat:{n}", base=net)
    assert topo.sync_ms(n, nbytes) == flat_sync_ms(net, n, nbytes)
    assert topo.broadcast_ms(n, nbytes) == flat_broadcast_ms(net, n, nbytes)
    assert (topo.p2p_fallback_ms(n, nbytes)
            == flat_p2p_fallback_ms(net, n, nbytes))


def test_single_rack_weighted_sync_matches_uniform():
    """On one uniform rack any weights are the same cost as none —
    bit-exact, which is why engines always pass them."""
    net = NetworkModel()
    topo = Topology.from_spec("flat:4", base=net)
    assert (topo.sync_ms(4, 8192, bytes_by_node=[1.0] * 4)
            == topo.sync_ms(4, 8192))
    assert (topo.sync_ms(4, 8192, bytes_by_node=[7.0, 0.0, 0.5, 3.25])
            == topo.sync_ms(4, 8192))
    # all-zero weights fall back to the uniform split
    assert (topo.sync_ms(4, 8192, bytes_by_node=[0.0] * 4)
            == topo.sync_ms(4, 8192))


# -- multi-rack pricing ------------------------------------------------------


def test_cross_rack_defaults_scale_intra():
    topo = Topology.from_spec("rack:2x2")
    assert topo.cross.latency_ms == pytest.approx(
        topo.intra.latency_ms * DEFAULT_CROSS_LATENCY_FACTOR)
    assert topo.cross.ms_per_byte == pytest.approx(
        topo.intra.ms_per_byte * DEFAULT_CROSS_BYTE_FACTOR)


def test_link_resolution_intra_vs_cross_vs_override():
    topo = Topology.from_spec("rack:2x2;link=3-2:9.0:1e-3")
    assert topo.link(0, 1) is topo.intra
    assert topo.link(1, 1) is topo.intra          # local bus
    assert topo.link(0, 2) is topo.cross
    assert topo.link(3, 2) == LinkModel(9.0, 1e-3)  # directed override...
    assert topo.link(2, 3) is topo.intra          # ...other direction not


def test_multi_rack_sync_costs_more_than_flat():
    net = NetworkModel()
    flat = Topology.from_spec("flat:8", base=net)
    racked = Topology.from_spec("rack:2x4", base=net)
    for nbytes in (1024, 65536, 10**6):
        assert racked.sync_ms(8, nbytes) > flat.sync_ms(8, nbytes)
        assert racked.broadcast_ms(8, nbytes) > flat.broadcast_ms(8, nbytes)


def test_sync_monotone_in_uplink_rate():
    net = NetworkModel()
    costs = [Topology.from_spec(
        f"rack:2x4;link=4-0:{net.latency_ms * 4}:{net.ms_per_byte * f}"
    ).sync_ms(8, 10**6) for f in (1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_uplink_path_root_rack_vs_remote_rack():
    topo = Topology.from_spec("rack:2x2")
    # root rack members never touch the spine
    assert topo.path_ms_per_byte(0) == pytest.approx(topo.intra.ms_per_byte)
    assert topo.path_ms_per_byte(1) == pytest.approx(topo.intra.ms_per_byte)
    # remote rack members pay member->leader plus leader->root
    expected = topo.intra.ms_per_byte + topo.cross.ms_per_byte
    assert topo.path_ms_per_byte(2) == pytest.approx(expected)
    assert topo.path_ms_per_byte(3) == pytest.approx(expected)
    assert len(topo.uplink_legs(0)) == 1
    assert len(topo.uplink_legs(3)) == 2


def test_weighted_sync_charges_the_bad_uplink():
    """Shifting bytes onto a node behind the spine costs more."""
    topo = Topology.from_spec("rack:2x1")
    onto_root = topo.sync_ms(2, 10**6, bytes_by_node=[3.0, 1.0])
    onto_remote = topo.sync_ms(2, 10**6, bytes_by_node=[1.0, 3.0])
    assert onto_remote > onto_root


def test_p2p_fallback_walks_every_uplink_path():
    """Across racks the fallback pays each node's own path latency and
    each even fragment its own path rate."""
    topo = Topology.from_spec("rack:2x1")
    net = topo.base
    lat = [net.latency_ms, net.latency_ms + topo.cross.latency_ms]
    rate = [net.ms_per_byte, net.ms_per_byte + topo.cross.ms_per_byte]
    expected = (sum(lat) + sum(5000 * r for r in rate)
                + net.coord_ms_per_node * 2)
    assert topo.p2p_fallback_ms(2, 10_000) == pytest.approx(expected)
    assert topo.p2p_fallback_ms(2, 10_000) > flat_p2p_fallback_ms(net, 2,
                                                                 10_000)


def test_in_rack_override_prices_each_member_on_its_link():
    """A pinned in-rack hop splits the rack's gather per member."""
    slow = LinkModel(0.08, 1e-3)
    topo = Topology.from_spec("flat:2;link=1-0:0.08:1e-3")
    assert topo.uplinks_differ
    expected = (topo.intra.latency_ms
                + 500 * topo.intra.ms_per_byte + 500 * slow.ms_per_byte
                + topo.base.coord_ms_per_node * 2)
    assert topo.sync_ms(2, 1000) == pytest.approx(expected)


def test_collective_span_is_checked():
    topo = Topology.from_spec("rack:2x2")
    with pytest.raises(SimulationError):
        topo.sync_ms(3, 1024)
    with pytest.raises(SimulationError):
        topo.sync_ms(4, -1)
    with pytest.raises(SimulationError):
        topo.sync_ms(4, 1024, bytes_by_node=[1.0, 1.0])
    with pytest.raises(SimulationError):
        topo.sync_ms(4, 1024, bytes_by_node=[1.0, 1.0, 1.0, -1.0])


# -- cluster integration -----------------------------------------------------


def test_cluster_without_topology_is_one_rack():
    topo = Topology.from_spec("rack:2x2")
    c = make_cluster(4, gpus_per_node=1, topology=topo)
    assert c.topology is topo
    assert topo.uplinks_differ
    flat = make_cluster(4, gpus_per_node=1)
    assert flat.topology.racks == ((0, 1, 2, 3),)
    assert flat.topology.base is DEFAULT_NETWORK
    assert not flat.topology.uplinks_differ


def test_cluster_topology_span_validated():
    with pytest.raises(SimulationError):
        make_cluster(4, topology=Topology.from_spec("rack:2x3"))


def test_repartition_cost_prices_links_crossed():
    """Migrating bytes out of a remote rack costs more than in-rack."""
    topo = Topology.from_spec("rack:2x1")
    c = make_cluster(2, gpus_per_node=1, topology=topo)
    flat = make_cluster(2, gpus_per_node=1)
    nbytes = 10**6
    from_remote = c.repartition_cost_ms(
        nbytes, moved_by_node=[0.0, float(nbytes)])
    from_root = c.repartition_cost_ms(
        nbytes, moved_by_node=[float(nbytes), 0.0])
    assert from_remote > from_root
    assert from_remote > flat.repartition_cost_ms(nbytes)


# -- transport link gray-faults ----------------------------------------------


def _transport(topology):
    return ResilientTransport(topology)


def test_link_pass_free_when_nothing_armed():
    """No slow links, no observer: flat cost, bit-identical."""
    topo = Topology.from_spec("rack:2x2")
    t = _transport(topo)
    assert t.sync_ms(4, 4096) == topo.sync_ms(4, 4096)
    assert t.link_slow_ms == 0.0


def test_link_slow_inflates_duration_only():
    topo = Topology.from_spec("rack:2x1")
    t = _transport(topo)
    healthy = t.sync_ms(2, 10**5)
    t2 = _transport(topo)
    t2.arm_link_slow(1, factor=4.0, passes=3)
    slow = t2.sync_ms(2, 10**5)
    frag = topo.fragment_ms(1, topo.node_bytes(10**5)[1])
    assert slow == pytest.approx(healthy + 3.0 * frag)
    assert t2.link_slow_ms == pytest.approx(3.0 * frag)
    assert t2.link_inflations == 1


def test_link_slow_expires_after_passes():
    topo = Topology.from_spec("rack:2x1")
    t = _transport(topo)
    t.arm_link_slow(1, factor=2.0, passes=2)
    healthy = topo.sync_ms(2, 4096)
    assert t.sync_ms(2, 4096) > healthy
    assert t.sync_ms(2, 4096) > healthy
    assert t.sync_ms(2, 4096) == healthy   # budget spent
    assert t.faults_armed == 0


def test_link_flaky_fires_every_other_pass():
    topo = Topology.from_spec("rack:2x1")
    t = _transport(topo)
    t.arm_link_flaky(1, factor=4.0, passes=4)
    healthy = topo.sync_ms(2, 4096)
    costs = [t.sync_ms(2, 4096) for _ in range(4)]
    assert costs[0] > healthy and costs[2] > healthy
    assert costs[1] == healthy and costs[3] == healthy


def test_link_slow_validation():
    t = _transport(Topology.from_spec("rack:2x1"))
    with pytest.raises(SimulationError):
        t.arm_link_slow(1, factor=0.5)
    with pytest.raises(SimulationError):
        t.arm_link_slow(1, passes=0)


def test_observer_sees_every_node_per_collective():
    topo = Topology.from_spec("rack:2x2")
    t = _transport(topo)
    det = StragglerDetector()
    t.set_link_observer(det)
    t.sync_ms(4, 4096)
    assert det.link_observations == 4
    assert det.flagged_links == []


def test_uniform_uplinks_feed_no_observer():
    """One rack has no link to tell apart: nothing is observed and a
    slow link is priced on the even fragment whatever the weights."""
    topo = Topology.from_spec("flat:4")
    t = _transport(topo)
    det = StragglerDetector()
    t.set_link_observer(det)
    assert t.sync_ms(4, 4096) == topo.sync_ms(4, 4096)
    assert det.link_observations == 0
    t.arm_link_slow(3, factor=3.0, passes=1)
    weights = [0.0, 0.0, 0.0, 4096.0]
    slow = t.sync_ms(4, 4096, bytes_by_node=weights)
    even = flat_transfer_ms(DEFAULT_NETWORK, 4096 / 4)
    assert slow == topo.sync_ms(4, 4096) + (even * 3.0 - even)
    assert det.link_observations == 0


# -- per-link straggler detection --------------------------------------------


def test_detector_flags_then_unflags_slow_link():
    det = StragglerDetector(ratio=3.0, patience=2)
    verdicts = []
    for _ in range(4):
        for node in range(4):
            obs = 40.0 if node == 3 else 10.0
            v = det.observe_link(node, obs, 10.0)
            if v is not None:
                verdicts.append(v)
    assert det.is_slow_link(3)
    assert det.flagged_links == [3]
    assert det.link_verdicts == 1
    assert [v.daemon_id for v in verdicts] == [3]
    assert verdicts[0].phase == "link"
    assert det.link_inflation(3) > det.ratio
    # healthy observations for `patience` rounds clear the flag
    for _ in range(8):
        for node in range(4):
            det.observe_link(node, 10.0, 10.0)
    assert not det.is_slow_link(3)
    assert det.link_recoveries == 1


def test_exclude_self_median_catches_lone_slow_link_of_two():
    """With 2 links an inclusive median would mask the slow one."""
    det = StragglerDetector(ratio=3.0, patience=2)
    for _ in range(4):
        det.observe_link(0, 10.0, 10.0)
        det.observe_link(1, 40.0, 10.0)
    assert det.flagged_links == [1]


# -- per-link override clauses on spec strings -------------------------------


def test_parse_link_overrides_on_spec():
    spec = "rack:2x2;link=2-0:5.0:0.02;link=3-2:0.1:0.001"
    assert Topology.parse_spec(spec) == [[0, 1], [2, 3]]
    overrides = Topology.parse_link_overrides(spec)
    assert overrides == {(2, 0): LinkModel(5.0, 0.02),
                         (3, 2): LinkModel(0.1, 0.001)}
    topo = Topology.from_spec(spec)
    assert topo.link(2, 0) == LinkModel(5.0, 0.02)
    assert topo.link(3, 2) == LinkModel(0.1, 0.001)
    # unpinned links keep the intra/cross defaults
    assert topo.link(0, 1) == topo.intra
    assert topo.link(1, 2) == topo.cross


def test_spec_without_clauses_has_no_overrides():
    assert Topology.parse_link_overrides("rack:2x4") == {}
    assert Topology.parse_link_overrides("flat:3") == {}


def test_spec_override_prices_the_pinned_uplink():
    slow = "rack:2x1;link=1-0:8.0:0.08"
    fast = "rack:2x1"
    payload = 10_000
    slow_ms = Topology.from_spec(slow).sync_ms(2, payload)
    fast_ms = Topology.from_spec(fast).sync_ms(2, payload)
    assert slow_ms > fast_ms


@pytest.mark.parametrize("bad", [
    "rack:2x2;link=",
    "rack:2x2;links=1-0:1:1",
    "rack:2x2;link=1:1:1",
    "rack:2x2;link=1-0:1",
    "rack:2x2;link=a-0:1:1",
    "rack:2x2;link=1-0:fast:1",
    "rack:2x2;link=1-0:1:1;link=1-0:2:2",
    "rack:2x2;link=1-0:-1:1",
])
def test_malformed_link_clauses_rejected(bad):
    with pytest.raises(SimulationError):
        Topology.from_spec(bad)


def test_cluster_spec_accepts_and_validates_link_clauses():
    from repro.core import ClusterSpec
    from repro.errors import MiddlewareError
    spec = ClusterSpec(nodes=4, topology="rack:2x2;link=2-0:5.0:0.02")
    topo = spec.build().topology
    assert topo.link(2, 0) == LinkModel(5.0, 0.02)
    assert spec.to_dict()["topology"] == "rack:2x2;link=2-0:5.0:0.02"
    with pytest.raises(MiddlewareError):
        ClusterSpec(nodes=4, topology="rack:2x2;link=9-0:5.0:0.02")
