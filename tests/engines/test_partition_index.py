"""``PartitionIndex`` — contents and lifecycle.

The index holds constants of an immutable ``PartitionedGraph``: it is
built once, shared (read-only) by every engine over that partition, and
never patched — a repartition or a mutation's partition delta assembles
a new ``PartitionedGraph``, which gets its own index on first use.
"""

import numpy as np
import pytest

from repro.api import ClusterSpec, GXPlug, MutationBatch
from repro.core import SkipDetector
from repro.engines import GraphXEngine, PowerGraphEngine
from repro.graph import PartitionIndex, rmat
from repro.graph.partition import _build_from_edge_owners
from repro.serve import GraphStore

GRAPH = rmat(400, 3200, seed=17)
ENGINES = [GraphXEngine, PowerGraphEngine]
SINGLE = ("replica_count", "stored_local", "out_local")
PER_PART = ("sources", "is_master")


def cluster():
    return ClusterSpec(nodes=3, gpus_per_node=1).build()


def arrays_of(index):
    out = {name: getattr(index, name) for name in SINGLE}
    for name in PER_PART:
        for node, arr in enumerate(getattr(index, name)):
            out[f"{name}[{node}]"] = arr
    return out


def assert_index_equal(got, want):
    got, want = arrays_of(got), arrays_of(want)
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert np.array_equal(got[name], arr), name


def rebuilt_from_scratch(pg):
    """A fresh assembly of the same placement, and its fresh index."""
    owner = np.empty(pg.graph.num_edges, dtype=np.int64)
    for part in pg.parts:
        owner[part.edge_ids] = part.node_id
    fresh = _build_from_edge_owners(pg.graph, pg.master_of, owner,
                                    pg.strategy, len(pg.parts))
    assert fresh is not pg
    return PartitionIndex(fresh)


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_index_equals_the_per_job_formulas(engine_cls):
    """What ``_bind_partition`` and ``out_local_mask`` used to compute
    for every job, kept here as the oracle."""
    pg = engine_cls.build(GRAPH, cluster()).pgraph
    g, n = pg.graph, pg.graph.num_vertices
    counts = np.zeros(n, dtype=np.int64)
    stored_local = np.ones(n, dtype=bool)
    for part in pg.parts:
        counts[part.referenced] += 1
        stored_local[part.src[pg.master_of[part.src]
                              != part.node_id]] = False
        own = np.zeros(n, dtype=bool)
        own[part.masters] = True
        assert np.array_equal(pg.index.is_master[part.node_id], own)
        assert np.array_equal(pg.index.sources[part.node_id],
                              np.unique(part.src))
    out_local = np.ones(n, dtype=bool)
    np.logical_and.at(out_local, g.src,
                      pg.master_of[g.src] == pg.master_of[g.dst])
    assert np.array_equal(pg.index.replica_count, np.maximum(counts, 1))
    assert np.array_equal(pg.index.stored_local, stored_local)
    assert np.array_equal(pg.index.out_local, out_local)
    assert pg.out_local_mask() is pg.index.out_local


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_engines_over_one_partition_share_one_index(engine_cls):
    first = engine_cls.build(GRAPH, cluster())
    index = first.pgraph.index
    second = engine_cls(first.pgraph, cluster())
    assert second.pgraph.index is index
    assert second._replica_count is first._replica_count
    assert second._stored_local is first._stored_local
    assert all(a is b for a, b in zip(second._master_sets,
                                      first._master_sets))
    assert SkipDetector(first.pgraph)._out_local is index.out_local


def test_index_arrays_refuse_writes():
    index = PowerGraphEngine.build(GRAPH, cluster()).pgraph.index
    for name, arr in arrays_of(index).items():
        with pytest.raises(ValueError):
            arr[:1] = 0
        assert not arr.flags.writeable, name


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_repartition_binds_a_fresh_index(engine_cls):
    c = cluster()
    engine = engine_cls.build(GRAPH, c, GXPlug(c))
    old_pg, old_index = engine.pgraph, engine.pgraph.index
    old_arrays = {k: v.copy() for k, v in arrays_of(old_index).items()}

    engine._repartition_to([0.6, 0.3, 0.1], width=1)

    assert engine.pgraph is not old_pg
    assert engine.pgraph.index is not old_index
    assert not np.array_equal(engine.pgraph.master_of, old_pg.master_of)
    assert_index_equal(engine.pgraph.index,
                       rebuilt_from_scratch(engine.pgraph))
    assert engine._replica_count is engine.pgraph.index.replica_count
    assert engine._stored_local is engine.pgraph.index.stored_local
    # the partition the engine left behind keeps its own constants
    assert old_pg.index is old_index
    for name, arr in arrays_of(old_index).items():
        assert np.array_equal(arr, old_arrays[name]), name


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_partition_delta_gets_a_fresh_index(engine_cls):
    store = GraphStore()
    store.load("g", GRAPH)
    pinned = store.snapshot("g")          # keeps v1 and its partition
    old_pg = pinned.build_engine(engine_cls, cluster()).pgraph
    old_index = old_pg.index
    old_arrays = {k: v.copy() for k, v in arrays_of(old_index).items()}

    rng = np.random.default_rng(2)
    store.mutate("g", MutationBatch(
        add_src=rng.integers(0, 400, 40), add_dst=rng.integers(0, 400, 40),
        remove_src=GRAPH.src[:25], remove_dst=GRAPH.dst[:25],
        add_vertices=5))

    assert store.stats()["partition_deltas"] == 1
    new_pg = store.build_engine("g", engine_cls, cluster()).pgraph
    # the delta, not a repartition
    assert store.stats()["partition_builds"] == 1
    assert new_pg is not old_pg
    assert new_pg.graph.num_vertices == GRAPH.num_vertices + 5
    assert_index_equal(new_pg.index, rebuilt_from_scratch(new_pg))
    # the pinned snapshot still reads the index it had
    again = pinned.build_engine(engine_cls, cluster()).pgraph
    assert again is old_pg and again.index is old_index
    for name, arr in arrays_of(old_index).items():
        assert np.array_equal(arr, old_arrays[name]), name
    pinned.release()
