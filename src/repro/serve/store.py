"""Shared graph store: load once, serve many, mutate without draining.

In a one-shot ``deploy()`` workflow every run reloads and repartitions
its graph — fine for a benchmark, ruinous for a service where dozens
of tenant jobs query the same few graphs.  The store keeps each graph
resident under a caller-chosen key and hands out **versioned snapshot
handles**:

* **snapshots** — :meth:`GraphStore.snapshot` returns a frozen,
  version-pinned :class:`GraphSnapshot` a job holds for its lifetime.
  Mutations and replacements never touch a pinned version: in-flight
  jobs keep computing against the graph they started on (snapshot
  isolation) while new submits see the latest version.
* **mutations** — :meth:`GraphStore.mutate` applies a
  :class:`~repro.graph.mutations.MutationBatch` copy-on-write: the key
  moves to ``version + 1``, the pre-mutation graph is retained only
  while snapshots pin it, and the batch is recorded in a
  :class:`~repro.graph.mutations.MutationLog` (idempotent by batch id,
  so a replayed batch applies exactly once).
* **partition deltas** — partitioning is the expensive prefix of every
  engine build.  A mutation carries every memoized partition of the
  pre-mutation version forward by reusing its master assignment (new
  vertices joining round-robin) and re-slicing edges in one vectorized
  pass — no full repartition, counted in ``partition_deltas``.
* **partition memoization** — as before, the
  :class:`~repro.graph.partition.PartitionedGraph` is cached per
  ``(key, version, engine, nodes)`` and rebound into fresh engine
  instances; partitions are shared read-only.

Running-job accounting (admission budgets) is the internal
``_attach``/``_detach`` counters, separate from pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..cluster import Cluster
from ..errors import ServeError
from ..graph import Graph, load_dataset
from ..graph.mutations import (MutationBatch, MutationLog, MutationRecord)
from ..graph.partition import PartitionedGraph, _build_from_edge_owners


@dataclass
class StoredGraph:
    """One resident graph: the latest version plus serving bookkeeping."""

    key: str
    graph: Graph
    version: int = 1
    #: jobs currently attached (running against this graph)
    attached: int = 0
    #: lifetime attach count, across all versions
    total_attaches: int = 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the CSR arrays (the admission currency)."""
        g = self.graph
        return int(g.indptr.nbytes + g.src.nbytes + g.dst.nbytes
                   + g.weights.nbytes)


class GraphSnapshot:
    """A frozen, version-pinned view of a stored graph.

    The handle owns one pin on ``(key, version)``: the store retains
    that version's graph (and memoized partitions) until every pin is
    released.  Use as a context manager or call :meth:`release`
    explicitly; release is idempotent.
    """

    __slots__ = ("key", "version", "graph", "_store", "_released")

    def __init__(self, store: "GraphStore", key: str, version: int,
                 graph: Graph) -> None:
        self._store = store
        self.key = key
        self.version = version
        self.graph = graph
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._store._release_pin(self.key, self.version)

    def build_engine(self, engine_cls, cluster: Cluster, middleware=None):
        """Engine over this pinned version (memoized partitions)."""
        if self._released:
            raise ServeError(
                f"snapshot of {self.key!r} v{self.version} was released")
        return self._store.build_engine(self.key, engine_cls, cluster,
                                        middleware, version=self.version)

    def __enter__(self) -> "GraphSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "released" if self._released else "pinned"
        return (f"GraphSnapshot({self.key!r}, v{self.version}, "
                f"{self.graph.num_vertices} vertices, {state})")


class GraphStore:
    """Registry of loaded, versioned graphs + memoized partitions."""

    def __init__(self) -> None:
        self._graphs: Dict[str, StoredGraph] = {}
        # (key, version, engine name, num_nodes) -> PartitionedGraph
        self._partitions: Dict[Tuple[str, int, str, int],
                               PartitionedGraph] = {}
        #: superseded versions still reachable: (key, version) -> Graph
        self._retained: Dict[Tuple[str, int], Graph] = {}
        #: live snapshot pins per (key, version)
        self._pins: Dict[Tuple[str, int], int] = {}
        self.log = MutationLog()
        self.partition_hits = 0
        self.partition_builds = 0
        self.partition_deltas = 0
        self.mutations = 0
        self.snapshots_taken = 0

    # -- loading ------------------------------------------------------------------------

    @staticmethod
    def _resolve(graph: Optional[Graph], dataset: Optional[str]) -> Graph:
        """The graph named by exactly one of ``graph`` (an in-memory
        :class:`Graph`) or ``dataset`` (a
        :func:`~repro.graph.load_dataset` name)."""
        if (graph is None) == (dataset is None):
            raise ServeError("pass exactly one of graph= or dataset=")
        return graph if graph is not None else load_dataset(dataset)

    def load(self, key: str, graph: Optional[Graph] = None, *,
             dataset: Optional[str] = None) -> StoredGraph:
        """Load a graph (``graph=`` or ``dataset=``) under a new ``key``.

        An existing key is refused: change a resident graph with
        :meth:`replace` (wholesale) or :meth:`mutate` (incremental).
        """
        if key in self._graphs:
            raise ServeError(
                f"graph {key!r} is already loaded; use "
                f"store.replace(key, graph) (wholesale) or "
                f"store.mutate(key, batch) (incremental)")
        entry = StoredGraph(key, self._resolve(graph, dataset))
        self._graphs[key] = entry
        return entry

    def replace(self, key: str, graph: Optional[Graph] = None, *,
                dataset: Optional[str] = None) -> StoredGraph:
        """Wholesale-swap ``key`` to a graph (``graph=`` or
        ``dataset=``) as a new version.

        The mutation chain for the key is severed (a replace is not a
        delta, so warm starts across it are impossible); pinned old
        versions stay readable through their snapshots, unpinned ones
        are dropped along with their partitions.
        """
        graph = self._resolve(graph, dataset)
        entry = self.get(key)
        old_version = entry.version
        if self._pins.get((key, old_version), 0) > 0:
            self._retained[(key, old_version)] = entry.graph
        entry.graph = graph
        entry.version += 1
        self.log.drop(key)
        self._drop_unpinned_partitions(key)
        return entry

    def unload(self, key: str) -> None:
        """Evict a graph (and its partitions); refused while in use."""
        entry = self.get(key)
        if entry.attached:
            raise ServeError(
                f"graph {key!r} has {entry.attached} attached job(s); "
                f"drain them before unloading")
        pinned = sum(n for (k, _v), n in self._pins.items() if k == key)
        if pinned:
            raise ServeError(
                f"graph {key!r} has {pinned} pinned snapshot(s); "
                f"release them before unloading")
        del self._graphs[key]
        self._partitions = {k: v for k, v in self._partitions.items()
                            if k[0] != key}
        self._retained = {k: v for k, v in self._retained.items()
                          if k[0] != key}
        self.log.drop(key)

    # -- mutation -----------------------------------------------------------------------

    def mutate(self, key: str,
               batch: Union[MutationBatch, Mapping[str, Any]],
               batch_id: Optional[str] = None) -> MutationRecord:
        """Apply a mutation batch copy-on-write; returns the record.

        Idempotent by ``batch_id`` (defaulting to the batch's content
        fingerprint): re-applying an already-applied id returns the
        original record without touching the graph — the exactly-once
        guarantee journal replay and wire retries lean on.
        """
        entry = self.get(key)
        if isinstance(batch, Mapping):
            batch = MutationBatch.from_doc(batch)
        if batch.is_empty:
            raise ServeError(f"empty mutation batch for graph {key!r}")
        bid = batch_id or batch.fingerprint()
        prior = self.log.applied(key, bid)
        if prior is not None:
            return prior
        new_graph, effect = batch.apply(entry.graph)
        old_version, old_graph = entry.version, entry.graph
        record = MutationRecord(batch_id=bid, from_version=old_version,
                                to_version=old_version + 1, batch=batch,
                                effect=effect)
        if self._pins.get((key, old_version), 0) > 0:
            self._retained[(key, old_version)] = old_graph
        entry.graph = new_graph
        entry.version += 1
        self.log.record(key, record)
        self.mutations += 1

        # partition delta: carry the old version's memoized partitions
        # forward — surviving edges keep their previous placement (so
        # per-node float summation order, hence values, are preserved
        # bit-for-bit), added edges land on their source's master, new
        # vertices join round-robin.  One vectorized re-slice, no full
        # repartition.
        old_pkeys = [k for k in self._partitions
                     if k[0] == key and k[1] == old_version]
        for pkey in old_pkeys:
            pg = self._partitions[pkey]
            num_nodes = pkey[3]
            grown = np.arange(old_graph.num_vertices,
                              new_graph.num_vertices,
                              dtype=np.int64) % num_nodes
            master_of = np.concatenate([pg.master_of, grown])
            old_owner = np.empty(old_graph.num_edges, dtype=np.int64)
            for part in pg.parts:
                old_owner[part.edge_ids] = part.node_id
            origin = effect.edge_origin
            if old_graph.num_edges:
                owner = np.where(origin >= 0,
                                 old_owner[np.clip(origin, 0, None)],
                                 master_of[new_graph.src])
            else:
                # np.where evaluates both branches eagerly: with a
                # zero-edge old graph even the never-selected index
                # into the empty old_owner would raise — every edge in
                # the new graph is freshly added, so place them all on
                # their source's master
                owner = master_of[new_graph.src]
            self._partitions[(key, entry.version, pkey[2], num_nodes)] = \
                _build_from_edge_owners(new_graph, master_of, owner,
                                        pg.strategy,
                                        num_partitions=len(pg.parts))
            self.partition_deltas += 1
            if (key, old_version) not in self._retained:
                del self._partitions[pkey]
        return record

    def effects_between(self, key: str, from_version: int,
                        to_version: int):
        """Delta chain between two versions (``None`` if unprovable)."""
        return self.log.effects_between(key, from_version, to_version)

    # -- snapshots ----------------------------------------------------------------------

    def snapshot(self, key: str,
                 version: Optional[int] = None) -> GraphSnapshot:
        """Pin ``(key, version)`` (default: latest) and return a handle."""
        entry = self.get(key)
        v = entry.version if version is None else int(version)
        graph = self._version_graph(key, v)
        self._pins[(key, v)] = self._pins.get((key, v), 0) + 1
        self.snapshots_taken += 1
        return GraphSnapshot(self, key, v, graph)

    def pinned_versions(self, key: str):
        """Versions of ``key`` currently pinned by live snapshots."""
        return {v for (k, v), n in self._pins.items() if k == key and n}

    def _version_graph(self, key: str, version: int) -> Graph:
        entry = self.get(key)
        if version == entry.version:
            return entry.graph
        graph = self._retained.get((key, version))
        if graph is None:
            raise ServeError(
                f"graph {key!r} version {version} is no longer "
                f"retained (latest is v{entry.version})")
        return graph

    def _release_pin(self, key: str, version: int) -> None:
        count = self._pins.get((key, version), 0)
        if count <= 1:
            self._pins.pop((key, version), None)
        else:
            self._pins[(key, version)] = count - 1
        self._maybe_gc(key, version)

    def _maybe_gc(self, key: str, version: int) -> None:
        """Drop a superseded version once nothing pins it."""
        if self._pins.get((key, version)):
            return
        entry = self._graphs.get(key)
        if entry is not None and entry.version == version:
            return  # the latest version always stays
        self._retained.pop((key, version), None)
        for pkey in [k for k in self._partitions
                     if k[0] == key and k[1] == version]:
            del self._partitions[pkey]

    def _drop_unpinned_partitions(self, key: str) -> None:
        self._partitions = {
            k: v for k, v in self._partitions.items()
            if k[0] != key or (key, k[1]) in self._retained}

    # -- lookup -------------------------------------------------------------------------

    def get(self, key: str) -> StoredGraph:
        entry = self._graphs.get(key)
        if entry is None:
            raise ServeError(
                f"unknown graph {key!r}; loaded: {sorted(self._graphs)}")
        return entry

    def keys(self):
        return sorted(self._graphs)

    def __contains__(self, key: str) -> bool:
        return key in self._graphs

    def __len__(self) -> int:
        return len(self._graphs)

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._graphs.values())

    def retained_bytes(self) -> int:
        """Bytes held by superseded-but-pinned versions."""
        return sum(
            int(g.indptr.nbytes + g.src.nbytes + g.dst.nbytes
                + g.weights.nbytes)
            for g in self._retained.values())

    def attached_bytes(self) -> int:
        """Bytes of graphs with at least one attached job.

        Shared-once accounting: ten jobs on one graph cost its bytes
        once — that is the whole point of the shared store.
        """
        return sum(e.nbytes for e in self._graphs.values() if e.attached)

    # -- attach lifecycle ---------------------------------------------------------------

    def _attach(self, key: str) -> StoredGraph:
        """Running-job accounting (admission budgets); not a pin."""
        entry = self.get(key)
        entry.attached += 1
        entry.total_attaches += 1
        return entry

    def _detach(self, key: str) -> None:
        entry = self.get(key)
        if entry.attached <= 0:
            raise ServeError(f"graph {key!r} is not attached")
        entry.attached -= 1

    # -- engine construction ------------------------------------------------------------

    def build_engine(self, key: str, engine_cls, cluster: Cluster,
                     middleware=None, *, version: Optional[int] = None):
        """Build an engine over the stored graph, reusing partitions.

        On the first build for ``(key, version, engine, nodes)`` the
        engine's own :meth:`build` partitions the graph and the result
        is memoized; later builds construct a fresh engine instance
        around the memoized partition — per-job engine state, shared
        immutable partition.  ``version`` defaults to the latest;
        version-pinned jobs pass their snapshot's version.
        """
        entry = self.get(key)
        v = entry.version if version is None else int(version)
        graph = self._version_graph(key, v)
        pkey = (key, v, engine_cls.name, cluster.num_nodes)
        pgraph = self._partitions.get(pkey)
        if pgraph is not None:
            self.partition_hits += 1
            return engine_cls(pgraph, cluster, middleware)
        engine = engine_cls.build(graph, cluster, middleware)
        self._partitions[pkey] = engine.pgraph
        self.partition_builds += 1
        return engine

    def ensure_partition(self, key: str, engine_cls,
                         cluster: Cluster) -> None:
        """Memoize the latest version's partition for ``engine_cls``, as
        the first :meth:`build_engine` for it would."""
        pkey = (key, self.get(key).version, engine_cls.name,
                cluster.num_nodes)
        if pkey not in self._partitions:
            self.build_engine(key, engine_cls, cluster)

    def stats(self) -> Dict[str, Any]:
        return {
            "graphs": {k: {"version": e.version, "attached": e.attached,
                           "bytes": e.nbytes,
                           "total_attaches": e.total_attaches}
                       for k, e in sorted(self._graphs.items())},
            "total_bytes": self.total_bytes(),
            "retained_bytes": self.retained_bytes(),
            "retained_versions": len(self._retained),
            "pinned_snapshots": sum(self._pins.values()),
            "mutations": self.mutations,
            "snapshots": self.snapshots_taken,
            "partitions": len(self._partitions),
            "partition_hits": self.partition_hits,
            "partition_builds": self.partition_builds,
            "partition_deltas": self.partition_deltas,
        }
