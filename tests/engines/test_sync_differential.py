"""Mask-algebra ``_sync_cost`` / ``_settle_caches`` against the sorted
set operations they replaced, and ``_settle_caches`` with no query
lists against the combined order's retired settle path.

The oracle engine below keeps the ``np.unique`` / ``np.intersect1d`` /
``np.setdiff1d`` bodies the engine had before PR 21, and the
``_invalidate_foreign`` + ``settle_dirty`` loop the combined superstep
ran after its sync before PR 22.  Over random change sets (duplicates
included, not confined to masters) and random frontiers, the production
forms must price the synchronization identically and leave every
agent's cache in the identical state: same slot tables, same free
list, same hit and eviction counts — which requires handing the cache
the same batches in the same order.
"""

from typing import Dict

import numpy as np
import pytest

from repro.api import ClusterSpec, GXPlug, MiddlewareConfig
from repro.engines import GraphXEngine, PowerGraphEngine
from repro.engines.base import BYTES_PER_CELL, BYTES_PER_ID
from repro.graph import rmat

GRAPH = rmat(600, 4800, seed=13)
NODES = 3


class SortedSetOracle:
    """The pre-PR-21 bodies, verbatim."""

    def _sync_cost(self, changed_by_node, next_active, width, use_lazy):
        num_nodes = self.cluster.num_nodes
        network = self._network()
        needed_by_node: Dict[int, np.ndarray] = {}
        if use_lazy:
            for part in self.pgraph.parts:
                sel = next_active[part.src]
                needed_by_node[part.node_id] = np.unique(part.src[sel])
        upload_total = 0
        slowest_upload = 0.0
        query_bytes = 0
        upload_bytes = [0.0] * num_nodes
        for part in self.pgraph.parts:
            changed = changed_by_node.get(part.node_id,
                                          np.empty(0, dtype=np.int64))
            if use_lazy:
                foreign_needs = [ids for node, ids in needed_by_node.items()
                                 if node != part.node_id]
                if foreign_needs:
                    queried = np.unique(np.concatenate(foreign_needs))
                    to_upload = np.intersect1d(changed, queried,
                                               assume_unique=False)
                else:
                    to_upload = np.empty(0, dtype=np.int64)
                query_bytes += needed_by_node[part.node_id].size * \
                    BYTES_PER_ID
            else:
                to_upload = changed
            count = int(to_upload.size)
            upload_total += count
            upload_bytes[part.node_id] = count * width * BYTES_PER_CELL
            runtime = self.cluster.nodes[part.node_id].runtime
            slowest_upload = max(
                slowest_upload, runtime.upload_ms_per_entity * count)
        payload_cells = upload_total * width
        payload_cells += self._mirror_sync_cells(
            np.concatenate(list(changed_by_node.values()))
            if changed_by_node else np.empty(0, dtype=np.int64), width)
        payload_bytes = payload_cells * BYTES_PER_CELL
        sync_ms = network.sync_ms(num_nodes, payload_bytes,
                                  bytes_by_node=upload_bytes)
        if use_lazy:
            sync_ms += network.broadcast_ms(num_nodes, query_bytes)
        sync_ms += max(node.runtime.sync_fixed_ms
                       for node in self.cluster.nodes)
        sync_ms += slowest_upload
        return sync_ms, upload_total, needed_by_node

    def _settle_caches(self, changed_by_node, needed_by_node):
        mw = self.middleware
        for part in self.pgraph.parts:
            agent = mw.agent_for(part.node_id)
            if agent.degraded:
                continue
            agent.settle_dirty()
            foreign = [ids for node, ids in changed_by_node.items()
                       if node != part.node_id]
            if not foreign:
                continue
            stale = np.concatenate(foreign)
            if stale.size == 0:
                continue
            needed = needed_by_node.get(part.node_id)
            if needed is not None and needed.size:
                delivered = np.intersect1d(stale, needed)
                agent.refresh_cache(delivered)
                remaining = np.setdiff1d(stale, delivered)
            else:
                remaining = stale
            if remaining.size:
                agent.invalidate_cache(remaining)

    # the combined order's post-sync maintenance before PR 22, verbatim
    # (two methods' worth: the helper, then the caller's loop)

    def _invalidate_foreign(self, changed_by_node):
        """Foreign updates stale out the other agents' cache entries."""
        mw = self.middleware
        for part in self.pgraph.parts:
            foreign = [ids for node, ids in changed_by_node.items()
                       if node != part.node_id]
            if not foreign:
                continue
            stale = np.concatenate(foreign)
            if stale.size and not mw.agent_for(part.node_id).degraded:
                mw.agent_for(part.node_id).invalidate_cache(stale)

    def _settle_combined(self, changed_by_node):
        mw = self.middleware
        self._invalidate_foreign(changed_by_node)
        for part in self.pgraph.parts:
            agent = mw.agent_for(part.node_id)
            if not agent.degraded:
                agent.settle_dirty()


class OracleGraphX(SortedSetOracle, GraphXEngine):
    pass


class OraclePowerGraph(SortedSetOracle, PowerGraphEngine):
    pass


ENGINES = {"graphx": (GraphXEngine, OracleGraphX),
           "powergraph": (PowerGraphEngine, OraclePowerGraph)}
CONFIGS = {"unbounded": lambda: MiddlewareConfig(),
           "bounded": lambda: MiddlewareConfig(
               cache_capacity=GRAPH.num_vertices // 10)}


def twin_engines(engine: str, config: str):
    """The engine and its oracle over one shared partition, each on its
    own cluster with its own connected middleware."""
    fast_cls, oracle_cls = ENGINES[engine]
    engines = []
    pgraph = None
    for cls in (fast_cls, oracle_cls):
        cluster = ClusterSpec(nodes=NODES, gpus_per_node=1).build()
        plug = GXPlug(cluster, CONFIGS[config]())
        built = (cls.build(GRAPH, cluster, plug) if pgraph is None
                 else cls(pgraph, cluster, plug))
        pgraph = built.pgraph
        plug.connect_all()
        engines.append(built)
    return engines


def random_change_sets(rng, dense: bool):
    """node -> changed ids: with duplicates, from anywhere in the graph
    (the mask forms may not lean on "changed ids are own masters")."""
    n = GRAPH.num_vertices
    sets = {}
    for node in range(NODES):
        if rng.random() < 0.15:
            sets[node] = np.empty(0, dtype=np.int64)
            continue
        size = int(rng.integers(1, n if dense else 40))
        ids = rng.integers(0, n, size)
        sets[node] = np.concatenate([ids, ids[: size // 3]])  # duplicates
    return sets


def cache_state(engine):
    state = []
    for node in range(NODES):
        cache = engine.middleware.agent_for(node).cache
        resident = cache._resident
        state.append((resident.tobytes(), cache._weights[resident].tobytes(),
                      cache._dirty.tobytes(),
                      cache.hits, cache.evictions, cache.writebacks,
                      len(cache)))
    return state


def warm_caches(rng, *sides):
    """Warm every side's caches the way a superstep does: a pass
    downloads some sources, apply marks some masters dirty."""
    n = GRAPH.num_vertices
    for node in range(NODES):
        fetched = rng.integers(0, n, int(rng.integers(1, 120)))
        updated = rng.integers(0, n, int(rng.integers(0, 40)))
        for side in sides:
            agent = side.middleware.agent_for(node)
            agent.cache.tick()
            agent.cache.insert_many(fetched)
            agent.note_master_updates(updated)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", range(6))
def test_sync_and_settle_equal_the_sorted_set_forms(engine, config, seed):
    rng = np.random.default_rng(seed)
    fast, oracle = twin_engines(engine, config)
    n = GRAPH.num_vertices
    for round_ in range(8):
        warm_caches(rng, fast, oracle)
        changed = random_change_sets(rng, dense=round_ % 2 == 0)
        next_active = rng.random(n) < rng.choice([0.0, 0.05, 0.5, 1.0])
        for use_lazy in (True, False):
            got = fast._sync_cost(changed, next_active, 4, use_lazy)
            want = oracle._sync_cost(changed, next_active, 4, use_lazy)
            assert repr(got[0]) == repr(want[0])
            assert got[1] == want[1]
            assert sorted(got[2]) == sorted(want[2])
            for node, ids in want[2].items():
                assert got[2][node].dtype == ids.dtype
                assert np.array_equal(got[2][node], ids)
        # settle once per round, alternating the lazy and eager forms
        # (an eager sync hands settle an empty query map)
        needed = got[2] if round_ % 3 else {}
        fast._settle_caches(changed, needed)
        oracle._settle_caches(changed, want[2] if round_ % 3 else {})
        assert cache_state(fast) == cache_state(oracle), \
            f"round {round_}"


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", range(6))
def test_settle_without_queries_equals_the_combined_settle(engine, config,
                                                           seed):
    """``_settle_caches(changed, {})`` is what the combined order now
    calls after its sync; per agent, clearing dirty bits and dropping
    foreign-changed entries commute, so it must leave the caches as the
    retired invalidate-everyone-then-settle-everyone loop did.  Nodes
    that received nothing are absent from the map, as the combined
    order leaves them."""
    rng = np.random.default_rng(100 + seed)
    fast, oracle = twin_engines(engine, config)
    for round_ in range(8):
        warm_caches(rng, fast, oracle)
        changed = {node: ids for node, ids in random_change_sets(
            rng, dense=round_ % 2 == 0).items() if round_ % 4 or ids.size}
        fast._settle_caches(changed, {})
        oracle._settle_combined(changed)
        assert cache_state(fast) == cache_state(oracle), \
            f"round {round_}"


def test_the_bounded_twins_do_evict():
    """Otherwise the bounded column above checks nothing new."""
    fast, _ = twin_engines("graphx", "bounded")
    rng = np.random.default_rng(0)
    agent = fast.middleware.agent_for(0)
    for _ in range(3):
        agent.cache.tick()
        agent.cache.insert_many(rng.integers(0, GRAPH.num_vertices, 120))
    assert agent.cache.evictions > 0
