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
cost question — so it tracks residency, not rows: three flat per-slot
arrays (id, weight, dirty bit) and a dense ``id -> slot`` index.  Vertex
values have one home, the engine's value array; nothing here holds a
copy that could go stale.  The slot tables are sized by residency — they
start small and double up to ``capacity`` — so every operation costs
O(batch) or O(resident), never O(capacity).  Whole id arrays move
through :meth:`contains_many` / :meth:`insert_many` / :meth:`touch` /
:meth:`invalidate_many` / :meth:`take_dirty`; the per-vertex
``insert``/``update`` are the sequential semantics the bulk forms are
tested against.  A batch is a set of vertex ids, so :meth:`insert_many`
takes it in ascending id order; a batch too large for the cache to
absorb evicts exactly as ``insert``/``update`` over that order would,
computed over arrays rather than vertex by vertex (:meth:`_plan_thrash`).

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

#: Starting size of the dense ``id -> slot`` index; grows geometrically
#: to cover the largest vertex id seen.
_INDEX_SEED = 1024
#: Starting length of the slot tables; they double on demand, up to the
#: cache's capacity.
_TABLE_SEED = 1024

_FULL_OF_DIRTY = "cache full of dirty entries; flush with take_dirty() first"


def _extended(arr: np.ndarray, size: int, fill) -> np.ndarray:
    """``arr`` lengthened to ``size``, the new tail set to ``fill``."""
    out = np.full(size, fill, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


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
    Eviction takes the lowest ``(weight, vertex_id)`` among *clean*
    entries; dirty entries are pinned by the lazy-upload contract.
    """

    def __init__(self, capacity: int, writeback: bool = False) -> None:
        check_count("cache capacity", capacity, 1)
        self.capacity = capacity
        #: with write-back, a cache full of dirty entries evicts the
        #: stalest dirty entry (its update counts as eagerly uploaded)
        #: instead of raising; clean entries always evict first.
        self.writeback = writeback
        # slot-major state, grown by _grow_tables()
        slots = min(capacity, _TABLE_SEED)
        self._ids = np.full(slots, -1, dtype=np.int64)  # slot -> id
        self._weights = np.zeros(slots, dtype=np.float64)
        self._dirty = np.zeros(slots, dtype=bool)
        self._index = np.full(_INDEX_SEED, -1, dtype=np.int64)  # id -> slot
        #: slots ``[0, _used)`` have been handed out at least once;
        #: ``_free`` lists the ones below that watermark vacated since.
        self._used = 0
        self._free: List[int] = []
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
        return self._slot(int(vertex)) >= 0

    def _slot(self, vertex: int) -> int:
        if 0 <= vertex < self._index.size:
            return int(self._index[vertex])
        return -1

    def contains_many(self, ids: np.ndarray) -> np.ndarray:
        """Boolean residency mask for an id array (no weight bumps)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        mask = np.zeros(ids.size, dtype=bool)
        in_range = (ids >= 0) & (ids < self._index.size)
        mask[in_range] = self._index[ids[in_range]] >= 0
        return mask

    def touch(self, ids: np.ndarray) -> None:
        """Bump weights of cached ids (counted as hits)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return
        in_range = (ids >= 0) & (ids < self._index.size)
        slots = self._index[ids[in_range]]
        slots = slots[slots >= 0]
        self._weights[slots] = self._generation
        self.hits += int(slots.size)

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
        is counted); new entries claim vacant slots, evicting the
        stalest clean pre-batch entries when the cache is full (batch
        members never evict each other).  When a batch outsizes what the
        pre-batch state can absorb, it evicts exactly as
        ``insert()``/``update()`` over the ascending ids would instead,
        full-of-dirty error included (:meth:`_plan_thrash`).
        ``dirty=True`` marks every written entry dirty; ``dirty=False``
        leaves existing dirty flags alone (refresh semantics, matching
        ``update(..., dirty=False)``).
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        ids = distinct_ids(ids)  # a set: duplicates count once
        if ids[0] < 0:
            raise MiddlewareError("vertex ids must be >= 0")
        self._ensure_index(int(ids[-1]))
        slots = self._index[ids]
        present = slots >= 0
        n_new = int(ids.size - int(present.sum()))
        vacant = self.capacity - self._size
        evicted = np.empty(0, dtype=np.int64)
        wedged = False
        if n_new > vacant:
            need = n_new - vacant
            occ = self._ids >= 0
            excl = np.zeros(occ.size, dtype=bool)
            excl[slots[present]] = True  # in-place targets are off-limits
            clean = np.flatnonzero(occ & ~self._dirty & ~excl)
            pinned = np.flatnonzero(occ & self._dirty & ~excl)
            avail = clean.size + (pinned.size if self.writeback else 0)
            if avail >= need:
                victims = self._pick_stalest(clean, min(need, clean.size))
                if victims.size < need:
                    extra = self._pick_stalest(pinned, need - victims.size)
                    self.writebacks += int(extra.size)
                    victims = np.concatenate([victims, extra])
                evicted = self._ids[victims].copy()
                self._drop_slots(victims)
            else:
                # batch outsizes the evictable pre-batch state: the
                # exact one-at-a-time semantics (thrash, or the
                # historical full-of-dirty error).
                evicted, kept, writebacks = self._plan_thrash(
                    ids, slots, dirty)
                self.writebacks += writebacks
                victims = self._index[evicted]
                self._drop_slots(distinct_ids(victims[victims >= 0]))
                wedged = kept.size < ids.size
                ids = ids[: kept.size][kept]
                slots = self._index[ids]
                present = slots >= 0
            self.evictions += int(evicted.size)
        pslots = slots[present]
        self._weights[pslots] = self._generation
        if dirty:
            self._dirty[pslots] = True
        new_ids = ids[~present]
        if new_ids.size:
            nslots = self._claim_slots(new_ids.size)
            self._index[new_ids] = nslots
            self._ids[nslots] = new_ids
            self._weights[nslots] = self._generation
            self._dirty[nslots] = bool(dirty)
        if wedged:
            raise MiddlewareError(_FULL_OF_DIRTY)
        return evicted

    def invalidate(self, vertex: int) -> None:
        """Drop an entry made stale by a foreign update (no eviction stat)."""
        slot = self._slot(int(vertex))
        if slot >= 0:
            self._drop_slots(np.array([slot], dtype=np.int64))

    def invalidate_many(self, ids: np.ndarray) -> int:
        """Bulk :meth:`invalidate`; returns how many entries dropped."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        in_range = (ids >= 0) & (ids < self._index.size)
        slots = self._index[ids[in_range]]
        slots = distinct_ids(slots[slots >= 0])
        if slots.size:
            self._drop_slots(slots)
        return int(slots.size)

    # -- internals ---------------------------------------------------------------

    def _ensure_index(self, max_id: int) -> None:
        if max_id < self._index.size:
            return
        size = self._index.size
        while size <= max_id:
            size *= 2
        self._index = _extended(self._index, size, -1)

    def _grow_tables(self, need: int) -> None:
        """Lengthen the slot tables to hold ``need`` slots: doubling, so
        growth is amortised O(1) per slot, and never past ``capacity``."""
        size = self._ids.size
        if need <= size:
            return
        size = min(self.capacity, max(need, 2 * size))
        self._ids = _extended(self._ids, size, -1)
        self._weights = _extended(self._weights, size, 0.0)
        self._dirty = _extended(self._dirty, size, False)

    def _claim_slots(self, k: int) -> np.ndarray:
        """Occupy ``k`` vacant slots: recycled ones first, then
        never-used ones past the watermark.  The caller has made room
        (``k`` fits) and fills the slots in."""
        split = max(len(self._free) - k, 0)
        recycled = self._free[split:]
        del self._free[split:]
        fresh = k - len(recycled)
        self._grow_tables(self._used + fresh)
        slots = np.concatenate([
            np.asarray(recycled, dtype=np.int64),
            np.arange(self._used, self._used + fresh, dtype=np.int64)])
        self._used += fresh
        self._size += k
        return slots

    def _put_one(self, vertex: int, mark_dirty: bool) -> Optional[int]:
        if vertex < 0:
            raise MiddlewareError(f"vertex ids must be >= 0, got {vertex}")
        self._ensure_index(vertex)
        slot = int(self._index[vertex])
        evicted = None
        if slot < 0:
            if self._size >= self.capacity:
                evicted = self._evict_one()
            slot = int(self._claim_slots(1)[0])
            self._index[vertex] = slot
            self._ids[slot] = vertex
        self._weights[slot] = self._generation
        if mark_dirty:
            self._dirty[slot] = True
        return evicted

    def _plan_thrash(self, ids: np.ndarray, slots: np.ndarray, mark: bool
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Plan the per-vertex ``insert()``/``update()`` fold over an
        ascending batch, without touching the tables.

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
        writebacks)``: the evicted ids in fold order, a mask over the
        processed prefix ``ids[:kept.size]`` of the members resident at
        the end, and how many evictions were dirty write-backs.  The
        prefix is shorter than the batch when the fold wedges on a cache
        full of pinned dirty entries.
        """
        occ = np.flatnonzero(self._ids >= 0)
        order = occ[np.lexsort((self._ids[occ], self._weights[occ],
                                self._dirty[occ]))]
        pool_of = 2 * self._dirty[order] + (self._weights[order]
                                            == self._generation)
        n0, n1, n2, _ = np.bincount(pool_of, minlength=4).tolist()
        ranked = self._ids[order]  # residents in eviction-key order
        writeback = self.writeback
        # the pools that only shrink, and the range of the one written
        if mark:
            static = n0 + n1 + (n2 if writeback else 0)
            heap = (static, order.size) if writeback else None
        else:
            static, heap = n0, (n0, n0 + n1)
        resident = slots >= 0
        rank = np.empty(self._ids.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        pos = rank[slots[resident]]
        turn_at = np.full(order.size, -1, dtype=np.int64)  # pos -> turn
        turn_at[pos] = np.flatnonzero(resident)
        spos = np.flatnonzero(turn_at[:static] >= 0)
        sturn = turn_at[spos]  # static members, in position order
        other = resident.copy()  # members outside the static pools
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
        miss = ~resident
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
        if heap is None:
            return np.concatenate(evicted), kept[:start], writebacks
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
            # from the dirty pools, then seeds the clean heap
            if not writeback:
                return np.concatenate(evicted), kept[:start], writebacks
            # the stalest stale dirty entry not yet rewritten; failing
            # that, the fresh dirty heap's minimum, every stale dirty
            # entry having moved into it
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
                kept[victim_turn] = False
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

    def _pick_stalest(self, slots: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` slots with the smallest ``(weight, id)`` among
        ``slots`` (the batch form of the eviction order)."""
        if k <= 0 or slots.size == 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((self._ids[slots], self._weights[slots]))
        return slots[order[:k]]

    def _drop_slots(self, slots: np.ndarray) -> None:
        self._index[self._ids[slots]] = -1
        self._ids[slots] = -1
        self._dirty[slots] = False
        self._free.extend(slots.tolist())
        self._size -= int(slots.size)

    def _evict_one(self) -> int:
        # prefer evicting clean entries (dirty updates would be lost);
        # choose the lowest-weight (stalest) one, lowest id on ties.
        occ = self._ids >= 0
        candidates = np.flatnonzero(occ & ~self._dirty)
        if candidates.size == 0:
            if not self.writeback:
                raise MiddlewareError(_FULL_OF_DIRTY)
            # write-back: the stalest dirty entry's update is considered
            # eagerly uploaded, freeing its slot.
            candidates = np.flatnonzero(occ)
            self.writebacks += 1
        slot = int(self._pick_stalest(candidates, 1)[0])
        victim = int(self._ids[slot])
        self._drop_slots(np.array([slot], dtype=np.int64))
        self.evictions += 1
        return victim

    # -- dirty tracking (lazy upload) ---------------------------------------------------

    @property
    def dirty_count(self) -> int:
        return int(self._dirty.sum())

    def dirty_ids(self) -> List[int]:
        return sorted(int(v) for v in self._ids[self._dirty])

    def take_dirty(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Clear the dirty bit of every dirty entry (or of the given
        subset) and return the ids cleared, ascending.

        These are the vertices the agent uploads; the entries stay
        cached but are clean afterwards.
        """
        if ids is None:
            slots = np.flatnonzero(self._dirty)
        else:
            wanted = np.asarray(ids, dtype=np.int64).ravel()
            in_range = (wanted >= 0) & (wanted < self._index.size)
            cand = self._index[wanted[in_range]]
            cand = cand[cand >= 0]
            slots = distinct_ids(cand[self._dirty[cand]])
        self._dirty[slots] = False
        return np.sort(self._ids[slots])

    def clear_dirty(self) -> int:
        """Mark every dirty entry clean without listing the ids (the
        settle-after-sync fast path); returns how many were dirty."""
        n = int(self._dirty.sum())
        if n:
            self._dirty[:] = False
        return n
