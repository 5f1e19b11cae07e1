"""Tests for the unified public configuration API (:mod:`repro.api`).

Two contracts: the blessed surface is complete and importable; and the
deployment description (:class:`ClusterSpec` / :class:`MiddlewareConfig`
presets) resolves to exactly the objects the plain constructors build,
with bit-identical run results either way.
"""

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    BASELINE,
    FULL,
    NETWORK_RESILIENT,
    RESILIENT,
    PRESETS,
    ClusterSpec,
    GXPlug,
    MiddlewareConfig,
    PageRank,
    PowerGraphEngine,
    deploy,
    load_synthetic_uniform,
    make_cluster,
)
from repro.cluster import DEFAULT_NETWORK
from repro.errors import MiddlewareError, ReproError


def small_graph():
    return load_synthetic_uniform(num_vertices=300, num_edges=2000, seed=7)


# -- surface completeness ----------------------------------------------------


def test_api_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_api_exports_the_blessed_builders():
    for name in ("ClusterSpec", "MiddlewareConfig", "deploy", "GXPlug",
                 "Topology", "LinkModel", "FaultPlan", "LINK_SLOW",
                 "LINK_FLAKY", "PRESETS"):
        assert name in api.__all__


# -- MiddlewareConfig presets ------------------------------------------------


@pytest.mark.parametrize("name,constant", sorted(
    PRESETS.items(), key=lambda kv: kv[0]))
def test_preset_builders_equal_legacy_constants(name, constant):
    assert MiddlewareConfig.preset(name) == constant


def test_preset_unknown_name():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig.preset("turbo")


def test_runtime_config_is_immutable_chain():
    base = MiddlewareConfig.preset("full")
    tuned = base.with_(block_size=64).with_(sync_skip=False)
    assert base == FULL                         # original untouched
    assert tuned.block_size == 64
    assert not tuned.sync_skip
    # a later with_ keeps every field an earlier one set
    resilient = MiddlewareConfig.preset("network-resilient")
    assert resilient.with_(block_size=64).rebalance_on_degrade


def test_gxplug_accepts_runtime_config_directly():
    cluster = ClusterSpec(nodes=2, gpus_per_node=1).build()
    plug = deploy(ClusterSpec(nodes=2, gpus_per_node=1),
                  MiddlewareConfig.preset("resilient"))
    assert plug.config == RESILIENT
    assert GXPlug(cluster, MiddlewareConfig.preset("full")).config == FULL
    assert deploy(ClusterSpec(nodes=2, gpus_per_node=1)).config == FULL


# -- ClusterSpec -------------------------------------------------------------


def test_cluster_spec_build_matches_make_cluster():
    spec = ClusterSpec(nodes=3, gpus_per_node=2, cpus_per_node=1)
    built = spec.build()
    legacy = make_cluster(3, gpus_per_node=2, cpu_accels_per_node=1)
    assert built.num_nodes == legacy.num_nodes
    assert built.network == legacy.network == DEFAULT_NETWORK
    assert built.topology is None
    assert built.capacity_factors() == legacy.capacity_factors()
    assert ([len(n.accelerators) for n in built.nodes]
            == [len(n.accelerators) for n in legacy.nodes])


def test_cluster_spec_runtime_strings():
    assert (ClusterSpec(nodes=1, runtime="jvm").build()
            .nodes[0].runtime.name == "jvm")
    assert (ClusterSpec(nodes=1).build()
            .nodes[0].runtime.name == "native")


def test_cluster_spec_network_overrides():
    spec = ClusterSpec(nodes=2, ms_per_byte=2e-4)
    net = spec.network_model()
    assert net.ms_per_byte == 2e-4
    assert net.latency_ms == DEFAULT_NETWORK.latency_ms
    # no overrides: the shared default instance, not a copy
    assert ClusterSpec(nodes=2).network_model() is DEFAULT_NETWORK


def test_cluster_spec_topology_resolution():
    spec = ClusterSpec(nodes=8, topology="rack:2x4",
                       cross_byte_factor=8.0)
    cluster = spec.build()
    assert cluster.topology is not None
    assert cluster.topology.num_racks == 2
    assert cluster.collectives is cluster.topology
    assert cluster.topology.cross.ms_per_byte == pytest.approx(
        cluster.topology.intra.ms_per_byte * 8.0)


@pytest.mark.parametrize("kwargs", [
    dict(nodes=0),
    dict(nodes=2, gpus_per_node=-1),
    dict(nodes=2, runtime="rust"),
    dict(nodes=2, ms_per_byte=-1.0),
    dict(nodes=2, cross_byte_factor=0.5),
    dict(nodes=4, topology="rack:2x4"),        # span mismatch
    dict(nodes=4, topology="mesh:4"),          # malformed spec
    # counts are integers: a float used to fail inside build(), and
    # nodes=True to build a one-node cluster
    dict(nodes=2.5),
    dict(nodes=True),
    dict(nodes=2, gpus_per_node=1.5),
    dict(nodes=2, cpus_per_node=True),
])
def test_cluster_spec_validation(kwargs):
    # span mismatches raise MiddlewareError; a malformed topology spec
    # surfaces the parser's SimulationError — both are ReproError
    with pytest.raises(ReproError):
        ClusterSpec(**kwargs)


def test_cluster_spec_to_dict_round_trip():
    spec = ClusterSpec(nodes=8, topology="rack:2x4", ms_per_byte=2e-4)
    doc = spec.to_dict()
    assert doc["nodes"] == 8 and doc["topology"] == "rack:2x4"
    assert ClusterSpec(**doc) == spec
    import json
    json.dumps(doc)                             # plain JSON types only


def test_cluster_spec_with_():
    spec = ClusterSpec(nodes=4)
    assert spec.with_(nodes=8, topology="rack:2x4").nodes == 8
    assert spec.nodes == 4


# -- the constructor surface and the builder surface agree -------------------


def test_old_and_new_surface_runs_bit_identical():
    """A run built from ``make_cluster`` + ``GXPlug(cluster, config)``
    equals the ClusterSpec/MiddlewareConfig.preset run bit-for-bit."""
    graph = small_graph()
    legacy_cluster = make_cluster(2, gpus_per_node=1)
    legacy = PowerGraphEngine.build(
        graph, legacy_cluster,
        middleware=GXPlug(legacy_cluster, FULL)).run(
            PageRank(), max_iterations=8)
    plug = deploy(ClusterSpec(nodes=2, gpus_per_node=1),
                  MiddlewareConfig.preset("full"))
    blessed = PowerGraphEngine.build(
        graph, plug.cluster, middleware=plug).run(
            PageRank(), max_iterations=8)
    assert np.array_equal(legacy.values, blessed.values)
    assert legacy.total_ms == blessed.total_ms
    assert legacy.iterations == blessed.iterations
