"""The GX-Plug algorithm template (§IV-A1).

The paper's daemons hold an iteration-based algorithm template with three
APIs — ``MSGGen()``, ``MSGMerge()`` and ``MSGApply()`` — that algorithm
engineers implement; the middleware handles everything else.  Different
call orders yield different computation models (§IV-B2):

* BSP (GraphX):      Gen -> Merge -> Apply
* GAS (PowerGraph):  Merge -> Apply -> Gen

This module defines the Python equivalent: :class:`AlgorithmTemplate`
with :meth:`msg_gen`, :meth:`msg_merge` and :meth:`msg_apply`, operating
on numpy edge/vertex arrays — with :meth:`init_state`, the four methods
an algorithm author writes.  Message sets (:class:`MessageSet`) are the
associative intermediate exchanged between nodes; associativity is what
lets the engines merge partial results computed anywhere in any order —
a property the test suite checks for every algorithm.  Everything else
on the template (:meth:`combine`, :meth:`combine_many`,
:meth:`merged_size`) has a default derived from those methods.
:func:`scatter_reduce` is the merge most algorithms need — one reduction
per destination — so their ``msg_merge`` is one call to it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import AlgorithmError
from ..graph import Graph


@dataclass
class MessageSet:
    """A merged set of messages addressed to vertices.

    ``ids`` are destination vertex ids (unique unless the algorithm's
    merge key is composite, e.g. label-propagation's (vertex, label)
    pairs); ``data`` holds one row of message payload per id.  Empty
    message sets use zero-length arrays.
    """

    ids: np.ndarray
    data: np.ndarray

    @classmethod
    def empty(cls, payload_width: int = 1) -> "MessageSet":
        return cls(np.empty(0, dtype=np.int64),
                   np.empty((0, payload_width), dtype=np.float64))

    @property
    def size(self) -> int:
        return int(self.ids.size)

    def __post_init__(self) -> None:
        if self.ids.shape[0] != self.data.shape[0]:
            raise AlgorithmError(
                f"MessageSet ids/data mismatch: {self.ids.shape[0]} vs "
                f"{self.data.shape[0]}"
            )


def scatter_reduce(dst_ids: np.ndarray, messages: np.ndarray,
                   ufunc: np.ufunc, identity) -> MessageSet:
    """Merge per-edge ``messages`` by destination: one row per distinct
    ``dst_id`` (ascending), each column reduced with ``ufunc`` starting
    from ``identity`` — ``(np.add, 0.0)``, ``(np.minimum, np.inf)``,
    ``(np.bitwise_or, 0)``...  The rows keep ``messages``' dtype.

    A dense scatter over ``[0, dst_ids.max()]``, not a sort: every
    column accumulates into a flat array in element order (so float
    sums are bit-identical to a sequential fold over the edges) and the
    ids present are read back off a mask.  Cost is O(edges + largest
    destination id) — the same order as ``msg_apply``'s copy of the
    vertex values, which every superstep already pays.
    """
    width = messages.shape[1]
    if dst_ids.size == 0:
        return MessageSet(np.empty(0, dtype=np.int64),
                          np.empty((0, width), dtype=messages.dtype))
    span = int(dst_ids.max()) + 1
    present = np.zeros(span, dtype=bool)
    present[dst_ids] = True
    ids = np.flatnonzero(present)
    data = np.empty((ids.size, width), dtype=messages.dtype)
    acc = np.full(span, identity, dtype=messages.dtype)
    for col in range(width):
        if col:
            acc[ids] = identity  # only the entries just written moved
        # 1-D operands take numpy's indexed-loop fast path; a 2-D
        # ``ufunc.at`` over (k, width) rows does not
        ufunc.at(acc, dst_ids, messages[:, col])
        data[:, col] = acc[ids]
    return MessageSet(ids, data)


@dataclass
class AlgorithmState:
    """Vertex values plus the active frontier of the current iteration."""

    values: np.ndarray       # shape (n,) or (n, k)
    active: np.ndarray      # bool mask, shape (n,)


class AlgorithmTemplate(ABC):
    """Base class for iterative graph algorithms on the GX-Plug template.

    Subclasses implement the three paper APIs plus initialization.  All
    array arguments are numpy; implementations must be pure (no hidden
    state between calls): the middleware calls them once per pass over
    whatever triplets are active, and retries re-run them.
    """

    #: Human-readable algorithm name used in reports and benches.
    name: str = "abstract"

    #: Iterations cap when the algorithm does not converge on its own
    #: (the paper caps LP at 15 "to avoid unlimited computation").
    default_max_iterations: int = 100

    #: Monotone *and replay-safe* algorithms (idempotent semirings:
    #: min-plus SSSP/BFS/CC, max-min widest path, bitwise-OR reach)
    #: tolerate applying or regenerating message subsets in any order
    #: without changing the fixed point.  Only these can use
    #: synchronization skipping's combined local iterations (§III-B3):
    #: a node may keep iterating on its own partition and defer
    #: cross-partition messages to the next global sync.  Sum/vote/count
    #: algorithms (PageRank, LP, k-core) need each message applied
    #: exactly once per superstep, so they use the strict detector.
    monotone: bool = False

    #: Algorithms whose messages are *events* (sent exactly once per
    #: state change, e.g. k-core removal notifications) must run
    #: frontier-driven even on engines that normally materialize the
    #: full triplet view: re-scanning all edges would replay the events.
    requires_frontier_scan: bool = False

    #: Warm-start policy after a graph mutation (see
    #: :func:`repro.graph.mutations.plan_warm_start`): ``"frontier"``
    #: for monotone algorithms that re-converge from the old fixpoint
    #: plus a dirty frontier under growing mutations; ``"fixpoint"``
    #: for contractions (PageRank) that reach the same bitwise
    #: stationary point from any seed; ``None`` (default) means only a
    #: cold recompute is provably bit-identical.
    incremental: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    @abstractmethod
    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        """Initial vertex values and active mask for ``graph``."""

    # -- the three paper APIs ---------------------------------------------------

    @abstractmethod
    def msg_gen(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """MSGGen: per-edge message payloads (one row per edge).

        Computes "the initial results with vertex and edge blocks and
        transform[s] them into initial messages".
        """

    @abstractmethod
    def msg_merge(self, dst_ids: np.ndarray,
                  messages: np.ndarray) -> MessageSet:
        """MSGMerge: combine raw per-edge messages into a message set."""

    @abstractmethod
    def msg_apply(self, values: np.ndarray, merged: MessageSet
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """MSGApply: fold messages into vertex values.

        Returns ``(new_values, changed_vertex_ids)``; ``new_values`` must
        be a fresh array (callers keep the old one for delta bookkeeping).
        """

    # -- derived from the three APIs (defaults) -----------------------------------

    def merged_size(self, dst_ids: np.ndarray,
                    messages: np.ndarray) -> int:
        """``msg_merge(dst_ids, messages).size`` without merging.

        The pipeline's cost model charges each block the upload of its
        block-local merge; only the entry count is needed for that.
        Default: the number of distinct destinations (any-writer-wins
        scatter, O(len) with no sort).  Override only when the merge
        key is not the destination id alone.
        """
        if dst_ids.size == 0:
            return 0
        pos = np.arange(dst_ids.size)
        stamp = np.empty(int(dst_ids.max()) + 1, dtype=np.int64)
        stamp[dst_ids] = pos
        return int(np.count_nonzero(stamp[dst_ids] == pos))

    def combine(self, a: MessageSet, b: MessageSet) -> MessageSet:
        """Associatively merge two message sets (cross-block/cross-node):
        empty is the identity, otherwise concatenate and msg_merge."""
        if a.size == 0:
            return b
        if b.size == 0:
            return a
        return self.msg_merge(np.concatenate([a.ids, b.ids]),
                              np.concatenate([a.data, b.data]))

    def combine_many(self, parts: Sequence[MessageSet]) -> MessageSet:
        """Merge many message sets at once (segment-reduction point).

        Bit-identical to folding :meth:`combine` left to right over
        ``parts`` — the contract every caller relies on.  The default
        :meth:`combine` merges all parts in one msg_merge over the
        concatenated messages: msg_merge accumulates in element order,
        so every partial result of the fold is a prefix of that one
        pass.  A subclass overriding :meth:`combine` gets the fold.
        """
        if type(self).combine is AlgorithmTemplate.combine:
            live = [p for p in parts if p.size]
            if not live:
                return self.empty_messages()
            if len(live) == 1:
                return live[0]
            return self.msg_merge(
                np.concatenate([p.ids for p in live]),
                np.concatenate([p.data for p in live]))
        merged = self.empty_messages()
        for p in parts:
            merged = self.combine(merged, p)
        return merged

    # -- iteration control ---------------------------------------------------------

    def next_active(self, graph: Graph, changed_ids: np.ndarray,
                    num_vertices: int) -> np.ndarray:
        """Frontier for the next iteration (default: changed vertices)."""
        active = np.zeros(num_vertices, dtype=bool)
        active[changed_ids] = True
        return active

    def is_converged(self, changed_count: int, iteration: int) -> bool:
        """Stop when an iteration changes nothing (frontier algorithms)."""
        return changed_count == 0

    # -- helpers -------------------------------------------------------------------

    def payload_width(self) -> int:
        """Columns in a message payload row (for empty-set construction)."""
        return 1

    def empty_messages(self) -> MessageSet:
        return MessageSet.empty(self.payload_width())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
