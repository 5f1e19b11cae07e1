"""Model-based property test: GraphStore vs a dict-of-version-lists model.

A hypothesis state machine drives one store through random
load / replace / mutate / snapshot / release / unload sequences
over two keys and checks it, after every step, against a plain model:
``key -> [[version, graph, pins], ...]``, oldest first, the last entry
the latest version.  A superseded entry stays in the list exactly while
the store must retain it: while a live snapshot pins it.
"""

import hashlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.errors import ServeError
from repro.graph import Graph
from repro.graph.mutations import MutationBatch
from repro.serve import GraphStore

KEYS = st.sampled_from(["a", "b"])


def digest(graph: Graph) -> str:
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.src, graph.dst, graph.weights):
        h.update(arr.tobytes())
    return h.hexdigest()


def small_graph(n: int, edges) -> Graph:
    return Graph.from_edges(n, [s % n for s, _ in edges],
                            [d % n for _, d in edges])


GRAPHS = st.builds(small_graph, st.integers(1, 6),
                   st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                            max_size=6))


class StoreMachine(RuleBasedStateMachine):

    @initialize()
    def start(self):
        self.store = GraphStore()
        #: key -> [[version, graph, pins], ...], latest last
        self.model = {}
        #: key -> version the key's mutation chain starts at (load or
        #: replace severs it)
        self.chain_start = {}
        #: key -> batch ids applied since the chain started
        self.applied = {}
        #: live snapshots and the digest of their graph when taken
        self.snaps = []

    def entry(self, key, version):
        return next(e for e in self.model[key] if e[0] == version)

    # -- rules ---------------------------------------------------------------------

    @rule(key=KEYS, graph=GRAPHS)
    def load(self, key, graph):
        if key in self.model:
            with pytest.raises(ServeError, match="already loaded"):
                self.store.load(key, graph)
            return
        assert self.store.load(key, graph).version == 1
        self.model[key] = [[1, graph, 0]]
        self.chain_start[key] = 1
        self.applied[key] = set()

    @rule(key=KEYS, graph=GRAPHS)
    def replace(self, key, graph):
        if key not in self.model:
            with pytest.raises(ServeError, match="unknown graph"):
                self.store.replace(key, graph)
            return
        outgoing = self.model[key][-1]
        version = outgoing[0] + 1
        assert self.store.replace(key, graph).version == version
        # the outgoing version is dropped when unpinned
        if not outgoing[2]:
            self.model[key].remove(outgoing)
        self.model[key].append([version, graph, 0])
        self.chain_start[key] = version
        self.applied[key] = set()

    @rule(key=KEYS, new_vertices=st.integers(0, 2),
          edge=st.tuples(st.integers(0, 9), st.integers(0, 9)))
    def mutate(self, key, new_vertices, edge):
        if key not in self.model:
            with pytest.raises(ServeError, match="unknown graph"):
                self.store.mutate(key, MutationBatch(add_vertices=1))
            return
        latest = self.model[key][-1]
        n = latest[1].num_vertices + new_vertices
        batch = MutationBatch(add_src=[edge[0] % n], add_dst=[edge[1] % n],
                              add_vertices=new_vertices)
        record = self.store.mutate(key, batch)
        if batch.fingerprint() in self.applied[key]:
            # a replayed batch id changes nothing (exactly-once)
            assert record.to_version <= latest[0]
            return
        self.applied[key].add(batch.fingerprint())
        assert (record.from_version, record.to_version) == \
            (latest[0], latest[0] + 1)
        graph = self.store.get(key).graph
        assert graph.num_vertices == n
        assert graph.num_edges == latest[1].num_edges + 1
        self.model[key].append([latest[0] + 1, graph, 0])
        self.model[key] = [e for e in self.model[key]
                           if e is not latest or e[2]]

    @rule(key=KEYS, back=st.integers(0, 3))
    def snapshot(self, key, back):
        if key not in self.model:
            with pytest.raises(ServeError, match="unknown graph"):
                self.store.snapshot(key)
            return
        version = self.model[key][-1][0] - back
        retained = [e for e in self.model[key] if e[0] == version]
        if not retained:
            with pytest.raises(ServeError, match="no longer retained"):
                self.store.snapshot(key, version)
            return
        snap = self.store.snapshot(key, version if back else None)
        assert snap.version == version
        # the snapshot shares the stored version's arrays, no copy
        assert snap.graph is retained[0][1]
        retained[0][2] += 1
        self.snaps.append((snap, digest(snap.graph)))

    @precondition(lambda self: self.snaps)
    @rule(data=st.data(), twice=st.booleans())
    def release(self, data, twice):
        snap, _ = self.snaps.pop(
            data.draw(st.integers(0, len(self.snaps) - 1)))
        snap.release()
        if twice:
            snap.release()                  # idempotent
        assert snap.released
        self.entry(snap.key, snap.version)[2] -= 1
        versions = self.model[snap.key]
        self.model[snap.key] = [e for e in versions
                                if e[2] or e is versions[-1]
                                or e[0] != snap.version]

    @rule(key=KEYS)
    def unload(self, key):
        if key not in self.model:
            with pytest.raises(ServeError, match="unknown graph"):
                self.store.unload(key)
            return
        if any(e[2] for e in self.model[key]):
            with pytest.raises(ServeError, match="pinned snapshot"):
                self.store.unload(key)
            return
        self.store.unload(key)
        del self.model[key], self.chain_start[key], self.applied[key]

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def versions_match(self):
        store = self.store
        assert store.keys() == sorted(self.model)
        retained = set()
        for key, versions in self.model.items():
            numbers = [e[0] for e in versions]
            assert numbers == sorted(set(numbers))   # strictly increasing
            latest = versions[-1]
            assert store.get(key).version == latest[0]
            assert store.get(key).graph is latest[1]
            retained.update((key, e[0]) for e in versions[:-1])
            assert store.pinned_versions(key) == \
                {e[0] for e in versions if e[2]}
        assert set(store._retained) == retained
        assert store.stats()["pinned_snapshots"] == \
            sum(e[2] for vs in self.model.values() for e in vs)

    @invariant()
    def snapshots_never_move(self):
        for snap, taken in self.snaps:
            assert not snap.released
            assert digest(snap.graph) == taken

    @invariant()
    def effect_chains(self):
        for key, versions in self.model.items():
            start, latest = self.chain_start[key], versions[-1][0]
            sizes = {e[0]: e[1].num_vertices for e in versions}
            for a in range(max(start - 1, 1), latest + 1):
                chain = self.store.effects_between(key, a, latest)
                if a == latest:
                    assert chain == []
                elif a < start:
                    assert chain is None             # severed by replace
                else:
                    assert len(chain) == latest - a
                    for v, effect in zip(range(a, latest), chain):
                        if v in sizes:
                            assert effect.from_vertices == sizes[v]
                    for prev, nxt in zip(chain, chain[1:]):
                        assert prev.to_vertices == nxt.from_vertices
                    assert chain[-1].to_vertices == sizes[latest]


StoreMachine.TestCase.settings = settings(max_examples=60,
                                          stateful_step_count=25,
                                          deadline=None)
test_store_matches_the_version_list_model = StoreMachine.TestCase
