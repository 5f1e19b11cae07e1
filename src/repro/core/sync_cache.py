"""Synchronization caching: LRU-weighted vertex residency + lazy upload
(§III-B2).

The agent keeps a temporary vertex table so that vertices repeatedly
involved in computation are not re-downloaded from the upper system every
iteration.  Entries carry a *weight* that rises when used and decays with
the passage of iterations; when the cache is full, the stalest (lowest
weight, i.e. least recently used) entry is evicted.

.. note::
   The paper's prose says the agent "evicts the vertex with the highest
   weight" in one sentence and "chooses vertices with the lowest weights"
   for replacement in the next; since weights *increase* on use, evicting
   the highest-weight (most recently used) entry would defeat the cache.
   We implement the only internally consistent reading — evict the lowest
   weight — and note the discrepancy in DESIGN.md.

What the cache decides is *which vertices must be re-downloaded* — a
cost question — so it tracks residency, not rows: three arrays indexed
by vertex id (resident bit, weight, dirty bit), grown geometrically
past the largest id seen.  Vertex values have one home, the engine's
value array; nothing here holds a copy that could go stale.  Lookups,
touches, invalidations and inserts that fit the vacancy cost O(batch);
an eviction scans the table, O(largest vertex id).  Whole id arrays
move through :meth:`contains_many` / :meth:`insert_many` /
:meth:`touch` / :meth:`invalidate_many` / :meth:`take_dirty`; the
per-vertex ``insert``/``update`` are the sequential semantics the bulk
forms are tested against.  A batch is a set of vertex ids, so
:meth:`insert_many` takes it in ascending id order; a batch too large
for the cache to absorb evicts exactly as ``insert``/``update`` over
that order would, computed over arrays rather than vertex by vertex
(:meth:`_plan_thrash`).

Lazy uploading (Algorithm 3) — agents announce the vertices they need
next iteration, and each uploads only its updated vertices that some
other agent queried — is priced by the engine (``_sync_cost``) and
applied to the caches by ``_settle_caches``; the dirty bits here are
the "updated, not yet uploaded" half of that contract.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import MiddlewareError
from ..graph import distinct_ids
from .config import check_count

#: Starting length of the per-vertex table; grows geometrically to
#: cover the largest vertex id seen.
_INDEX_SEED = 1024


def _later_smaller(seq: np.ndarray) -> np.ndarray:
    """For each ``seq[i]``, how many later entries are smaller (distinct
    non-negative ints).  A bottom-up merge count over the ascending
    runs of ``seq``: O(n log n) per run-pair level, one level per
    doubling of the run count."""
    out = np.zeros(seq.size, dtype=np.int64)
    if seq.size < 2:
        return out
    block = np.zeros(seq.size, dtype=np.int64)
    np.cumsum(seq[1:] < seq[:-1], out=block[1:])
    span = int(seq.max()) + 1
    while block[-1] > 0:
        pair = block >> 1
        right = (block & 1).astype(bool)
        key = pair * span + seq
        later = np.sort(key[right])
        left = ~right
        out[left] += (np.searchsorted(later, key[left])
                      - np.searchsorted(later, pair[left] * span))
        block = pair
    return out


class LRUVertexCache:
    """Weight-decayed LRU index of the vertices resident on an agent.

    Weights follow the paper's scheme: new/used entries get the current
    generation stamp (so weight effectively "decreases with the passage of
    iterations" relative to fresh entries and "increases if being used").
    Eviction takes the lowest ``(dirty, weight, vertex_id)``: clean
    entries go first, and a cache full of dirty entries writes back the
    stalest one (its update counts as eagerly uploaded).
    """

    def __init__(self, capacity: int) -> None:
        check_count("cache capacity", capacity, 1)
        self.capacity = capacity
        # vertex-major state, grown by _grow(); dirty implies resident
        self._resident = np.zeros(_INDEX_SEED, dtype=bool)
        self._weights = np.zeros(_INDEX_SEED, dtype=np.float64)
        self._dirty = np.zeros(_INDEX_SEED, dtype=bool)
        self._size = 0
        self._generation = 0.0
        # instrumentation
        self.hits = 0
        self.evictions = 0
        self.writebacks = 0

    # -- iteration lifecycle ---------------------------------------------------

    def tick(self) -> None:
        """Advance one iteration: every resident weight ages by one."""
        self._generation += 1.0

    # -- residency ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, vertex: int) -> bool:
        vertex = int(vertex)
        return (0 <= vertex < self._resident.size
                and bool(self._resident[vertex]))

    def _known(self, ids: np.ndarray) -> np.ndarray:
        """The ids of ``ids`` the table covers (duplicates kept)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        return ids[(ids >= 0) & (ids < self._resident.size)]

    def contains_many(self, ids: np.ndarray) -> np.ndarray:
        """Boolean residency mask for an id array (no weight bumps)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        mask = np.zeros(ids.size, dtype=bool)
        in_range = (ids >= 0) & (ids < self._resident.size)
        mask[in_range] = self._resident[ids[in_range]]
        return mask

    def touch(self, ids: np.ndarray) -> None:
        """Bump weights of cached ids (counted as hits)."""
        ids = self._known(ids)
        ids = ids[self._resident[ids]]
        self._weights[ids] = self._generation
        self.hits += int(ids.size)

    # -- inserts / updates ------------------------------------------------------------

    def insert(self, vertex: int) -> Optional[int]:
        """Record a freshly downloaded vertex (counted as a miss upstream).

        Returns the evicted vertex id if the insert displaced an entry,
        else None.
        """
        return self._put_one(int(vertex), mark_dirty=False)

    def update(self, vertex: int, dirty: bool = True) -> Optional[int]:
        """Record a computed result held by the agent (lazy upload keeps
        it dirty until synchronization).

        Returns the evicted vertex id if the update displaced an entry.
        """
        return self._put_one(int(vertex), mark_dirty=bool(dirty))

    def insert_many(self, ids: np.ndarray, dirty: bool = False
                    ) -> np.ndarray:
        """Bulk insert/update of the vertex set ``ids`` in one shot.

        The batch is a set: duplicates count once, and it is taken in
        ascending id order whatever order it arrives in (every in-tree
        caller passes ascending ids already).  Returns the evicted
        vertex ids.  Entries already resident get a recency bump (no hit
        is counted); new entries fill the vacancy, evicting the stalest
        pre-batch entries when the cache is full (batch members never
        evict each other).  A batch larger than the cache evicts exactly
        as ``insert()``/``update()`` over the ascending ids would
        instead (:meth:`_plan_thrash`).  ``dirty=True`` marks every
        written entry dirty; ``dirty=False`` leaves existing dirty flags
        alone (refresh semantics, matching ``update(..., dirty=False)``).
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        ids = distinct_ids(ids)  # a set: duplicates count once
        if ids[0] < 0:
            raise MiddlewareError("vertex ids must be >= 0")
        self._grow(int(ids[-1]))
        present = self._resident[ids]
        vacant = self.capacity - self._size
        n_new = ids.size - int(np.count_nonzero(present))
        evicted = np.empty(0, dtype=np.int64)
        if n_new > vacant:
            if ids.size <= self.capacity:
                evicted = self._stalest(n_new - vacant, ids[present])
                self.writebacks += int(np.count_nonzero(
                    self._dirty[evicted]))
                self._drop(evicted)
            else:
                evicted, kept, writebacks = self._plan_thrash(
                    ids, present, dirty)
                self.writebacks += writebacks
                gone = distinct_ids(evicted)
                self._drop(gone[self._resident[gone]])
                ids = ids[kept]
            self.evictions += int(evicted.size)
        self._size += ids.size - int(np.count_nonzero(self._resident[ids]))
        self._resident[ids] = True
        self._weights[ids] = self._generation
        if dirty:
            self._dirty[ids] = True
        return evicted

    def invalidate(self, vertex: int) -> None:
        """Drop an entry made stale by a foreign update (no eviction stat)."""
        if vertex in self:
            self._drop(np.array([vertex], dtype=np.int64))

    def invalidate_many(self, ids: np.ndarray) -> int:
        """Bulk :meth:`invalidate`; returns how many entries dropped."""
        ids = self._known(ids)
        ids = distinct_ids(ids[self._resident[ids]])
        self._drop(ids)
        return int(ids.size)

    # -- internals ---------------------------------------------------------------

    def _grow(self, max_id: int) -> None:
        """Lengthen the table past ``max_id``: doubling, so growth is
        amortised O(1) per id."""
        size = self._resident.size
        if max_id < size:
            return
        while size <= max_id:
            size *= 2
        self._resident, self._weights, self._dirty = (
            np.concatenate((arr, np.zeros(size - arr.size, arr.dtype)))
            for arr in (self._resident, self._weights, self._dirty))

    def _put_one(self, vertex: int, mark_dirty: bool) -> Optional[int]:
        if vertex < 0:
            raise MiddlewareError(f"vertex ids must be >= 0, got {vertex}")
        self._grow(vertex)
        evicted = None
        if not self._resident[vertex]:
            if self._size >= self.capacity:
                evicted = self._evict_one()
            self._resident[vertex] = True
            self._size += 1
        self._weights[vertex] = self._generation
        if mark_dirty:
            self._dirty[vertex] = True
        return evicted

    def _plan_thrash(self, ids: np.ndarray, present: np.ndarray, mark: bool
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Plan the per-vertex ``insert()``/``update()`` fold over an
        ascending batch (``present``: which members are resident),
        without touching the table.

        Every eviction of that fold takes the minimum of ``(dirty,
        weight, id)`` over the residents, and every key the batch writes
        is ``(dirty, generation, id)`` with ``generation`` the largest
        weight there is.  So the residents split into four pools that
        empty strictly in turn — stale clean, fresh clean, stale dirty,
        fresh dirty (fresh: weight == generation) — and one sort lays
        them out in that order.  The batch writes into one fresh pool
        (clean or dirty, by ``mark``); the pools before it only shrink,
        so the fold runs in two phases, each in closed form:

        * *static*: each miss evicts the next entry of the shrinking
          pools that was not rewritten first.  A resident member is
          evicted before its turn iff the misses ahead of it outrun its
          position (a count, below).
        * *heap*: the written pool is a min-heap fed ascending ids, one
          push after each pop, so which entry each pop takes is a merge
          of the heap's content with the pushes (also below).

        A resident member evicted before its turn becomes a miss; one
        evicted after it is lost.  Returns ``(evicted, kept,
        writebacks)``: the evicted ids in fold order, a mask over ``ids``
        of the members resident at the end, and how many evictions were
        dirty write-backs.
        """
        occ = np.flatnonzero(self._resident)
        # residents in eviction-key order (lexsort is stable, occ ascends)
        ranked = occ[np.lexsort((self._weights[occ], self._dirty[occ]))]
        pool_of = 2 * self._dirty[ranked] + (self._weights[ranked]
                                             == self._generation)
        n0, n1, n2, _ = np.bincount(pool_of, minlength=4).tolist()
        # the pools that only shrink, and the range of the one written
        if mark:
            static = n0 + n1 + n2
            heap = (static, ranked.size)
        else:
            static, heap = n0, (n0, n0 + n1)
        rank = np.empty(self._resident.size, dtype=np.int64)
        rank[ranked] = np.arange(ranked.size)
        pos = rank[ids[present]]
        turn_at = np.full(ranked.size, -1, dtype=np.int64)  # pos -> turn
        turn_at[pos] = np.flatnonzero(present)
        spos = np.flatnonzero(turn_at[:static] >= 0)
        sturn = turn_at[spos]  # static members, in position order
        other = present.copy()  # members outside the static pools
        other[sturn] = False
        vacant = self.capacity - self._size
        # The static member at position l with turn t is evicted first
        # iff the evicting misses before t outnumber the live entries up
        # to l.  The misses before t are t less the members outside the
        # static pools and the static members kept, and the kept ones
        # ahead of l are not live, so the count comes down to the kept
        # earlier-turn members behind l.  Taking all earlier-turn members
        # behind l (``_later_smaller``) is exact: had one been evicted,
        # the pointer passed l before it did, and the sum stays positive.
        gone = (sturn - vacant - np.cumsum(other)[sturn] - spos
                - _later_smaller(sturn)) > 0
        miss = ~present
        miss[sturn[gone]] = True
        # the static pools' live entries: all but members rewritten in
        # place before the pointer reached them
        live = np.ones(static, dtype=bool)
        live[spos[~gone]] = False
        live = np.flatnonzero(live)
        evicting = int(miss.sum()) - vacant
        victims = live[:max(evicting, 0)]
        evicted = [ranked[victims]]
        # victims past the clean pools are write-backs
        writebacks = int((victims >= n0 + n1).sum())
        kept = np.ones(ids.size, dtype=bool)
        if evicting <= live.size:
            return evicted[0], kept, writebacks
        # the heap phase starts at the miss that finds no live entry left
        start = int(np.searchsorted(np.cumsum(miss),
                                    vacant + live.size + 1))
        # the heap at that miss: the written pool's residents plus every
        # earlier member not parked elsewhere, ascending
        early = np.flatnonzero(~other[:start])
        content = np.concatenate((ranked[heap[0]:heap[1]], ids[early]))
        by_id = np.argsort(content, kind="stable")
        heap_ids = content[by_id]
        heap_turn = np.concatenate((turn_at[heap[0]:heap[1]], early))[by_id]
        first, ahead = start, False
        if heap_ids.size == 0:
            # clean batch, no clean entry anywhere: this one miss evicts
            # from the dirty pools, then seeds the clean heap.  The
            # victim is the stalest stale dirty entry not yet rewritten;
            # failing that, the fresh dirty heap's minimum, every stale
            # dirty entry having moved into it
            dirty_turn = turn_at[n0 + n1:]
            stale = np.flatnonzero(~((dirty_turn[:n2] >= 0)
                                     & (dirty_turn[:n2] < start)))
            at = (stale[0] if stale.size
                  else int(np.argmin(ranked[n0 + n1:])))
            evicted.append(ranked[n0 + n1 + at:n0 + n1 + at + 1])
            writebacks += 1
            victim_turn = int(dirty_turn[at])
            if victim_turn > start:
                miss[victim_turn] = True  # re-enters at its turn
            elif victim_turn >= 0:
                kept[victim_turn] = False  # rewritten already: lost
            heap_ids, heap_turn = ids[start:start + 1], np.array([start])
            first = start + 1
        elif heap_turn[0] > start:
            # the heap's minimum is a member still to come: the phase's
            # first pop takes it, so its turn is a miss
            miss[heap_turn[0]] = True
            ahead = True
        # pop k precedes push k, and every push is larger than the ones
        # before it; so push k is popped at pop k + max(1, #heap below
        # it) when there are that many, and the heap's content, in
        # order, takes the pops left over.  After the first push the
        # heap always holds a smaller id than any member still to come,
        # so only pop 0 can take one (``ahead``).
        push_turn = first + np.flatnonzero(miss[first:])
        pops = push_turn.size
        when = np.arange(pops) + np.maximum(
            np.searchsorted(heap_ids, ids[push_turn]), 1)
        popped = when < pops
        when, push_turn = when[popped], push_turn[popped]
        rest = np.ones(pops, dtype=bool)
        rest[when] = False
        out = np.empty(pops, dtype=np.int64)
        out[when] = ids[push_turn]
        out[rest] = heap_ids[:pops - when.size]
        evicted.append(out)
        if mark:
            writebacks += pops
        lost = heap_turn[int(ahead):pops - when.size]
        kept[lost[lost >= 0]] = False
        kept[push_turn] = False
        return np.concatenate(evicted), kept, writebacks

    def _stalest(self, k: int, spared: np.ndarray) -> np.ndarray:
        """The ``k`` residents outside ``spared`` with the smallest
        ``(dirty, weight, id)``, in that order (the batch form of the
        eviction order)."""
        candidates = self._resident.copy()
        candidates[spared] = False
        candidates = np.flatnonzero(candidates)
        order = np.lexsort((self._weights[candidates],
                            self._dirty[candidates]))
        return candidates[order[:k]]

    def _drop(self, ids: np.ndarray) -> None:
        """Vacate the distinct resident ``ids``."""
        self._resident[ids] = False
        self._dirty[ids] = False
        self._size -= int(ids.size)

    def _evict_one(self) -> int:
        victim = self._stalest(1, np.empty(0, dtype=np.int64))
        self.writebacks += int(self._dirty[victim[0]])
        self._drop(victim)
        self.evictions += 1
        return int(victim[0])

    # -- dirty tracking (lazy upload) ---------------------------------------------------

    @property
    def dirty_count(self) -> int:
        return int(np.count_nonzero(self._dirty))

    def dirty_ids(self) -> List[int]:
        return np.flatnonzero(self._dirty).tolist()

    def take_dirty(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Clear the dirty bit of every dirty entry (or of the given
        subset) and return the ids cleared, ascending.

        These are the vertices the agent uploads; the entries stay
        cached but are clean afterwards.
        """
        if ids is None:
            taken = np.flatnonzero(self._dirty)
        else:
            wanted = self._known(ids)
            taken = distinct_ids(wanted[self._dirty[wanted]])
        self._dirty[taken] = False
        return taken

    def clear_dirty(self) -> int:
        """Mark every dirty entry clean without listing the ids (the
        settle-after-sync fast path); returns how many were dirty."""
        n = int(np.count_nonzero(self._dirty))
        if n:
            self._dirty[:] = False
        return n
