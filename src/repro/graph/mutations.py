"""Streaming graph mutations: batched edits, effects, warm-start plans.

Static-graph batch runs are the wrong shape for a service whose graphs
drift all day — followers appear, roads close, weights get retuned.
This module is the graph half of the streaming subsystem:

* :class:`MutationBatch` — one atomic batch of edge/vertex edits
  (add / remove / reweight), JSON round-trippable for the wire protocol
  and the journal, with a content fingerprint for idempotency.
* ``batch.apply(graph)`` — functional application: builds a **new**
  immutable CSR :class:`~repro.graph.graph.Graph` (vertex ids are
  stable; a removed vertex becomes isolated, nothing is renumbered, so
  per-vertex value arrays stay aligned across versions) plus a
  :class:`MutationEffect` describing what changed.
* :class:`MutationLog` — the per-key ordered log of applied batches
  the :class:`~repro.serve.store.GraphStore` keeps, so any
  version-to-version delta can be reconstructed without retaining old
  graphs.
* :func:`plan_warm_start` — turns "previous fixpoint + effects" into a
  checkpoint-shaped seed for ``run_stepwise(resume_from=...)``: the
  dirty frontier of touched vertices for monotone algorithms, or an
  all-active seed for contraction fixpoints like PageRank.

Warm-start policy (the incremental-algorithm caveats, in one place):

* ``incremental = "frontier"`` (CC, SSSP): the algorithm is monotone —
  values only ever improve, and the fixpoint is unique — so seeding
  from *any* valid bound converges to the bitwise-identical fixpoint.
  The old fixpoint is a valid bound only for **growing** mutations
  (edge adds, weight decreases); removals and weight increases
  invalidate it, and the planner refuses (the caller falls back to a
  cold start — still correct, just not incremental).
* ``incremental = "fixpoint"`` (PageRank): the damped update is a
  contraction with a unique attracting fixpoint, so any seed converges
  to the same stationary point — warm starts are safe under *every*
  mutation, but every vertex must stay active (PageRank recomputes all
  values each superstep).  Bitwise identity with a cold run holds
  whenever the float update map is unchanged (e.g. pure reweights,
  which weight-oblivious PageRank never reads); a structural change
  perturbs the map, and the two trajectories then agree to round-off
  rather than to the bit.
* algorithms without an ``incremental`` attribute always recompute
  from scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.config import check_count
from ..errors import GraphError
from .graph import Graph, _as_ids, distinct_ids, stable_order


def _as_weights(values, size: int, label: str) -> np.ndarray:
    if values is None:
        return np.ones(size, dtype=np.float64)
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (size,):
        raise GraphError(
            f"{label} has shape {arr.shape}, expected ({size},)")
    return arr


def _isin_sorted(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``np.isin(keys, sorted_keys)`` for an ascending ``sorted_keys``,
    by binary search (several times faster than ``isin``'s hashing on
    a mutation batch's key sets)."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


@dataclass(frozen=True)
class MutationBatch:
    """One atomic batch of graph edits.

    All arrays are coerced and validated at construction; ``apply``
    validates endpoints against the target graph.  Edge identity is the
    ``(src, dst)`` pair — removing or reweighting a pair touches every
    parallel copy of that edge.
    """

    add_src: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    add_dst: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    add_weights: Optional[np.ndarray] = None
    remove_src: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    remove_dst: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    update_src: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    update_dst: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))
    update_weights: Optional[np.ndarray] = None
    add_vertices: int = 0
    remove_vertices: np.ndarray = field(default_factory=lambda: np.empty(
        0, dtype=np.int64))

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        for label in ("add_src", "add_dst", "remove_src", "remove_dst",
                      "update_src", "update_dst", "remove_vertices"):
            ids = _as_ids(getattr(self, label), label)
            if ids.size and ids.min() < 0:
                raise GraphError(f"{label} contains negative ids")
            set_(self, label, ids)
        if self.add_src.size != self.add_dst.size:
            raise GraphError(
                f"add_src has {self.add_src.size} ids but add_dst has "
                f"{self.add_dst.size}")
        if self.remove_src.size != self.remove_dst.size:
            raise GraphError(
                f"remove_src has {self.remove_src.size} ids but "
                f"remove_dst has {self.remove_dst.size}")
        if self.update_src.size != self.update_dst.size:
            raise GraphError(
                f"update_src has {self.update_src.size} ids but "
                f"update_dst has {self.update_dst.size}")
        set_(self, "add_weights", _as_weights(
            self.add_weights, self.add_src.size, "add_weights"))
        if self.update_weights is None and self.update_src.size:
            raise GraphError("update edges need update_weights")
        set_(self, "update_weights", _as_weights(
            self.update_weights, self.update_src.size, "update_weights"))
        check_count("add_vertices", self.add_vertices, 0, error=GraphError)
        set_(self, "add_vertices", int(self.add_vertices))

    # -- introspection ------------------------------------------------------------------

    @property
    def num_changes(self) -> int:
        return int(self.add_src.size + self.remove_src.size
                   + self.update_src.size + self.add_vertices
                   + self.remove_vertices.size)

    @property
    def is_empty(self) -> bool:
        return self.num_changes == 0

    @property
    def shrinking(self) -> bool:
        """Does the batch remove structure (edges or vertices)?"""
        return bool(self.remove_src.size or self.remove_vertices.size)

    def fingerprint(self) -> str:
        """Content digest — the default idempotency key for a batch."""
        h = hashlib.sha256()
        for arr in (self.add_src, self.add_dst, self.add_weights,
                    self.remove_src, self.remove_dst, self.update_src,
                    self.update_dst, self.update_weights,
                    self.remove_vertices):
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(b"|")
        h.update(str(self.add_vertices).encode())
        return h.hexdigest()[:16]

    # -- wire / journal round trip ------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        if self.add_src.size:
            doc["add"] = {"src": self.add_src.tolist(),
                          "dst": self.add_dst.tolist(),
                          "weights": self.add_weights.tolist()}
        if self.remove_src.size:
            doc["remove"] = {"src": self.remove_src.tolist(),
                             "dst": self.remove_dst.tolist()}
        if self.update_src.size:
            doc["update"] = {"src": self.update_src.tolist(),
                             "dst": self.update_dst.tolist(),
                             "weights": self.update_weights.tolist()}
        if self.add_vertices:
            doc["add_vertices"] = self.add_vertices
        if self.remove_vertices.size:
            doc["remove_vertices"] = self.remove_vertices.tolist()
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "MutationBatch":
        if not isinstance(doc, Mapping):
            raise GraphError(
                f"mutation batch must be an object, got {type(doc).__name__}")
        known = {"add", "remove", "update", "add_vertices",
                 "remove_vertices"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise GraphError(
                f"unknown mutation batch field(s): {', '.join(unknown)}")

        def section(name: str, want_weights: bool) -> Dict[str, Any]:
            sec = doc.get(name)
            if sec is None:
                return {}
            if not isinstance(sec, Mapping):
                raise GraphError(f"batch field {name!r} must be an object")
            extra = sorted(set(sec) - ({"src", "dst", "weights"}
                                       if want_weights else {"src", "dst"}))
            if extra:
                raise GraphError(
                    f"unknown field(s) in batch {name!r}: "
                    f"{', '.join(extra)}")
            if "src" not in sec or "dst" not in sec:
                raise GraphError(f"batch {name!r} needs src and dst lists")
            out = {f"{name}_src": sec["src"], f"{name}_dst": sec["dst"]}
            if want_weights and "weights" in sec:
                out[f"{name}_weights"] = sec["weights"]
            return out

        kwargs: Dict[str, Any] = {}
        kwargs.update(section("add", True))
        kwargs.update(section("remove", False))
        kwargs.update(section("update", True))
        av = doc.get("add_vertices", 0)
        if not isinstance(av, int) or isinstance(av, bool):
            raise GraphError("add_vertices must be an integer")
        kwargs["add_vertices"] = av
        kwargs["remove_vertices"] = doc.get("remove_vertices", [])
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"bad mutation batch: {exc}") from exc

    # -- application --------------------------------------------------------------------

    def apply(self, graph: Graph) -> Tuple[Graph, "MutationEffect"]:
        """Apply to ``graph``, returning ``(new_graph, effect)``.

        Functional: the input graph is untouched.  Vertex ids are
        stable — ``add_vertices`` appends ids ``n .. n+k-1``, and a
        removed vertex keeps its id but loses every incident edge.
        Removing or updating a ``(src, dst)`` pair that does not exist
        raises :class:`~repro.errors.GraphError` (batches describe
        observed edits, so a miss is a corruption signal; replay-level
        idempotency belongs to batch ids, not edge-level blindness).
        """
        n_old = graph.num_vertices
        n_new = n_old + self.add_vertices
        for label, arr, bound in (
                ("add_src", self.add_src, n_new),
                ("add_dst", self.add_dst, n_new),
                ("remove_src", self.remove_src, n_old),
                ("remove_dst", self.remove_dst, n_old),
                ("update_src", self.update_src, n_old),
                ("update_dst", self.update_dst, n_old),
                ("remove_vertices", self.remove_vertices, n_old)):
            if arr.size and arr.max() >= bound:
                raise GraphError(
                    f"{label} id {int(arr.max())} out of range for "
                    f"{bound} vertices")

        span = np.int64(max(n_new, 1))
        edge_keys = graph.src * span + graph.dst
        keep = np.ones(graph.num_edges, dtype=bool)

        rkeys = self.remove_src * span + self.remove_dst
        removed = np.sort(rkeys)
        if rkeys.size or self.update_src.size:
            sorted_edges = np.sort(edge_keys)
        if rkeys.size:
            missing = ~_isin_sorted(rkeys, sorted_edges)
            if missing.any():
                i = int(np.nonzero(missing)[0][0])
                raise GraphError(
                    f"remove targets missing edge "
                    f"({int(self.remove_src[i])}, "
                    f"{int(self.remove_dst[i])})")
            keep &= ~_isin_sorted(edge_keys, removed)
        if self.remove_vertices.size:
            gone = np.zeros(n_new, dtype=bool)
            gone[self.remove_vertices] = True
            keep &= ~(gone[graph.src] | gone[graph.dst])

        weights = graph.weights.astype(np.float64, copy=True)
        weight_increases = 0
        dec_src: np.ndarray = np.empty(0, dtype=np.int64)
        dec_dst: np.ndarray = np.empty(0, dtype=np.int64)
        if self.update_src.size:
            ukeys = self.update_src * span + self.update_dst
            if _isin_sorted(ukeys, removed).any():
                raise GraphError(
                    "batch both removes and updates the same edge")
            # last update to a pair wins
            uniq, first = np.unique(ukeys[::-1], return_index=True)
            uw = self.update_weights[::-1][first]
            missing = ~_isin_sorted(uniq, sorted_edges)
            if missing.any():
                k = int(uniq[np.nonzero(missing)[0][0]])
                raise GraphError(
                    f"update targets missing edge "
                    f"({k // int(span)}, {k % int(span)})")
            hit = _isin_sorted(edge_keys, uniq)
            old_w = weights[hit]
            new_w = uw[np.searchsorted(uniq, edge_keys[hit])]
            weight_increases = int(np.count_nonzero(new_w > old_w))
            dec = new_w < old_w
            dec_src = graph.src[hit][dec]
            dec_dst = graph.dst[hit][dec]
            weights[hit] = new_w

        new_src = np.concatenate([graph.src[keep], self.add_src])
        new_dst = np.concatenate([graph.dst[keep], self.add_dst])
        new_wts = np.concatenate([weights[keep], self.add_weights])
        new_graph = Graph.from_edges(n_new, new_src, new_dst, new_wts,
                                     name=graph.name)
        # Provenance of each CSR edge in the new graph: the edge id it
        # had before the mutation, or -1 for a freshly added edge.
        # Graph.from_edges orders its edges by the same stable_order
        # call, so partition deltas can carry edge placement forward
        # exactly.
        origin = np.concatenate([
            np.nonzero(keep)[0],
            np.full(self.add_src.size, -1, dtype=np.int64)])
        edge_origin = origin[stable_order(new_src, n_new)]

        touched = distinct_ids(np.concatenate([
            self.add_src, self.add_dst, dec_src, dec_dst,
            np.arange(n_old, n_new, dtype=np.int64)]))
        effect = MutationEffect(
            from_vertices=n_old, to_vertices=n_new,
            edges_added=int(self.add_src.size),
            edges_removed=int(graph.num_edges - int(keep.sum())),
            edges_updated=int(self.update_src.size),
            weight_increases=weight_increases,
            shrinking=self.shrinking,
            touched=touched,
            edge_origin=edge_origin)
        return new_graph, effect


@dataclass(frozen=True)
class MutationEffect:
    """What a batch did to a concrete graph — computed at apply time,
    so warm-start planning never needs the pre-mutation graph."""

    from_vertices: int
    to_vertices: int
    edges_added: int
    edges_removed: int
    edges_updated: int
    weight_increases: int
    shrinking: bool
    #: dirty frontier: endpoints of added edges, endpoints of
    #: weight-decreased edges, and freshly added vertices
    touched: np.ndarray
    #: per new-graph edge: the edge id it had pre-mutation, -1 if added
    #: (lets partition deltas preserve placement, hence float summation
    #: order, for surviving edges)
    edge_origin: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def monotone_safe(self) -> bool:
        """May a monotone algorithm keep its old fixpoint as a seed?

        Only growing mutations preserve "old fixpoint is a valid
        bound": removals and weight increases can push the true
        fixpoint *worse* than the seed, which a monotone update can
        never recover from.
        """
        return not self.shrinking and self.weight_increases == 0


@dataclass(frozen=True)
class MutationRecord:
    """One applied batch in a key's mutation log."""

    batch_id: str
    from_version: int
    to_version: int
    batch: MutationBatch
    effect: MutationEffect


class MutationLog:
    """Per-key ordered log of applied mutation batches.

    The store appends a :class:`MutationRecord` per applied batch; the
    service reads it back to (a) dedupe replayed batch ids and (b)
    reconstruct the effect chain between any two versions for
    warm-start planning.
    """

    def __init__(self) -> None:
        self._records: Dict[str, List[MutationRecord]] = {}
        self._by_id: Dict[Tuple[str, str], MutationRecord] = {}

    def record(self, key: str, record: MutationRecord) -> None:
        self._records.setdefault(key, []).append(record)
        self._by_id[(key, record.batch_id)] = record

    def applied(self, key: str, batch_id: str) -> Optional[MutationRecord]:
        """The record a batch id already produced, if any (idempotency)."""
        return self._by_id.get((key, batch_id))

    def records(self, key: str) -> Tuple[MutationRecord, ...]:
        return tuple(self._records.get(key, ()))

    def drop(self, key: str) -> None:
        """Forget a key's history (unload, or a wholesale replace)."""
        for rec in self._records.pop(key, ()):  # pragma: no branch
            self._by_id.pop((key, rec.batch_id), None)

    def effects_between(self, key: str, from_version: int,
                        to_version: int
                        ) -> Optional[List[MutationEffect]]:
        """The effect chain ``from_version -> to_version``, or ``None``
        if the log cannot prove the versions are mutation-connected
        (e.g. a wholesale replace broke the chain)."""
        if from_version == to_version:
            return []
        chain: List[MutationEffect] = []
        at = from_version
        for rec in self._records.get(key, ()):
            if rec.from_version == at:
                chain.append(rec.effect)
                at = rec.to_version
                if at == to_version:
                    return chain
        return None


@dataclass
class WarmStart:
    """A checkpoint-shaped seed for ``run_stepwise(resume_from=...)``.

    Duck-types :class:`~repro.fault.checkpoint.Checkpoint`: iteration
    zero, seeded values, and the dirty frontier as the active set.
    """

    values: np.ndarray
    active: np.ndarray
    iteration: int = 0
    cost_ms: float = 0.0


def plan_warm_start(algorithm, old_values: np.ndarray,
                    effects: Sequence[MutationEffect],
                    new_graph: Graph) -> Optional[WarmStart]:
    """Build a warm-start seed, or ``None`` when only a cold start is
    provably bit-identical (see the module docstring for the policy).
    """
    mode = getattr(algorithm, "incremental", None)
    if mode is None:
        return None
    old = np.asarray(old_values)
    state = algorithm.init_state(new_graph)
    values = np.array(state.values, copy=True)
    if old.ndim != values.ndim or (
            old.ndim == 2 and old.shape[1] != values.shape[1]):
        return None  # parameterization changed shape: seed is unusable
    n_new = new_graph.num_vertices
    n_common = min(old.shape[0], n_new)
    if mode == "fixpoint":
        values[:n_common] = old[:n_common]
        return WarmStart(values=values,
                         active=np.ones(n_new, dtype=bool))
    if mode != "frontier":
        raise GraphError(
            f"unknown incremental mode {mode!r} on "
            f"{type(algorithm).__name__}")
    if any(not e.monotone_safe for e in effects):
        return None
    values[:n_common] = old[:n_common]
    active = np.zeros(n_new, dtype=bool)
    for e in effects:
        ids = e.touched[e.touched < n_new]
        active[ids] = True
    return WarmStart(values=values, active=active)
