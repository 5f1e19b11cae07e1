"""Synchronization caching: LRU-weighted vertex cache + lazy upload (§III-B2).

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

The cache is slot-based: a ``(slots, width)`` value matrix, flat per-slot
id/weight/dirty arrays, and a dense ``id -> slot`` lookup array.  The
slot tables are sized by residency — they start small and double up to
``capacity`` — so every operation costs O(batch) or O(resident), never
O(capacity).  Whole id arrays move through :meth:`lookup_many` /
:meth:`insert_many` / :meth:`touch` / :meth:`take_dirty` with fancy
indexing — the per-vertex methods (``lookup``/``insert``/``update``)
remain and keep their exact historical semantics.

Lazy uploading (Algorithm 3) is driven by two queues: each agent pushes
the vertex ids it will need next iteration to the **global query queue**;
the union is broadcast, and each agent uploads to the **global data
queue** only its updated vertices that some other agent queried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import MiddlewareError

#: Starting size of the dense ``id -> slot`` index; grows geometrically
#: to cover the largest vertex id seen.
_INDEX_SEED = 1024
#: Starting length of the slot tables; they double on demand, up to the
#: cache's capacity.
_TABLE_SEED = 1024

_FULL_OF_DIRTY = "cache full of dirty entries; flush with take_dirty() first"


def _extended(arr: np.ndarray, size: int, fill) -> np.ndarray:
    """``arr`` lengthened to ``size`` rows, the new tail set to ``fill``."""
    out = np.full((size,) + arr.shape[1:], fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class LRUVertexCache:
    """Weight-decayed LRU cache of vertex attribute rows.

    Weights follow the paper's scheme: new/used entries get the current
    generation stamp (so weight effectively "decreases with the passage of
    iterations" relative to fresh entries and "increases if being used").
    Eviction takes the lowest ``(weight, vertex_id)`` among *clean*
    entries; dirty entries are pinned by the lazy-upload contract.
    """

    def __init__(self, capacity: int, writeback: bool = False) -> None:
        if capacity < 1:
            raise MiddlewareError(f"cache capacity must be >= 1, got "
                                  f"{capacity}")
        self.capacity = capacity
        #: with write-back, a cache full of dirty entries evicts the
        #: stalest dirty row (its update counts as eagerly uploaded)
        #: instead of raising; clean entries always evict first.
        self.writeback = writeback
        # slot-major state, grown by _grow_tables(); the value matrix is
        # allocated lazily once the first row reveals the attribute width
        # and dtype.
        slots = min(capacity, _TABLE_SEED)
        self._values: Optional[np.ndarray] = None  # (slots, width)
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
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- iteration lifecycle ---------------------------------------------------

    def tick(self) -> None:
        """Advance one iteration: every resident weight ages by one."""
        self._generation += 1.0

    # -- lookups ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, vertex: int) -> bool:
        return self._slot(int(vertex)) >= 0

    def _slot(self, vertex: int) -> int:
        if 0 <= vertex < self._index.size:
            return int(self._index[vertex])
        return -1

    def lookup(self, vertex: int) -> Optional[np.ndarray]:
        """Value for ``vertex`` or None on miss; a hit bumps its weight."""
        slot = self._slot(int(vertex))
        if slot < 0:
            self.misses += 1
            return None
        self.hits += 1
        self._weights[slot] = self._generation
        return self._values[slot].copy()

    def contains_many(self, ids: np.ndarray) -> np.ndarray:
        """Boolean residency mask for an id array (no weight bumps)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        mask = np.zeros(ids.size, dtype=bool)
        in_range = (ids >= 0) & (ids < self._index.size)
        mask[in_range] = self._index[ids[in_range]] >= 0
        return mask

    def lookup_many(self, ids: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk lookup: ``(hit_mask, rows)`` for an id array.

        ``rows`` holds one value row per hit (aligned with
        ``ids[hit_mask]``); hits bump weights, misses count as misses.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        mask = self.contains_many(ids)
        slots = self._index[ids[mask]]
        self._weights[slots] = self._generation
        self.hits += int(slots.size)
        self.misses += int(ids.size - slots.size)
        if self._values is None:
            return mask, np.empty((0, 0))
        return mask, self._values[slots]

    def partition_ids(self, ids: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``ids`` into (cached, missing) without bumping weights.

        Used by the agent when costing a download batch; call
        :meth:`touch` afterwards for the ids actually used.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        mask = self.contains_many(ids)
        return ids[mask], ids[~mask]

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

    def insert(self, vertex: int, value: np.ndarray) -> Optional[int]:
        """Cache a freshly downloaded vertex (counted as a miss upstream).

        Returns the evicted vertex id if the insert displaced an entry,
        else None.
        """
        return self._put_one(int(vertex), value, mark_dirty=False)

    def update(self, vertex: int, value: np.ndarray,
               dirty: bool = True) -> Optional[int]:
        """Write a computed result into the cache (lazy upload holds it).

        Returns the evicted vertex id if the update displaced an entry.
        """
        return self._put_one(int(vertex), value, mark_dirty=bool(dirty))

    def insert_many(self, ids: np.ndarray, rows: np.ndarray,
                    dirty: bool = False) -> np.ndarray:
        """Bulk insert/update: scatter ``rows`` to ``ids`` in one shot.

        Returns the evicted vertex ids.  Entries already resident are
        updated in place; new entries claim vacant slots, evicting the
        stalest clean pre-batch entries when the cache is full (batch
        members never evict each other — when a batch outsizes what the
        pre-batch state can absorb, the exact sequential semantics run
        instead, see :meth:`_plan_thrash`).  ``dirty=True`` marks every
        written row dirty; ``dirty=False`` leaves existing dirty flags
        alone (refresh semantics, matching ``update(..., dirty=False)``).
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        rows = self._ensure_store(rows)
        if rows.shape[0] != ids.size:
            raise MiddlewareError(
                f"insert_many: {ids.size} ids vs {rows.shape[0]} rows")
        if ids.size > 1:
            uniq, rev_first = np.unique(ids[::-1], return_index=True)
            if uniq.size != ids.size:
                # duplicate ids: keep the last occurrence (the sequential
                # overwrite result)
                keep = ids.size - 1 - rev_first
                ids, rows = ids[keep], rows[keep]
        if bool((ids < 0).any()):
            raise MiddlewareError("vertex ids must be >= 0")
        self._ensure_index(int(ids.max()))
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
                # batch outsizes the evictable pre-batch state: replay
                # the exact one-at-a-time semantics (thrash, or the
                # historical full-of-dirty error).
                evicted, kept, writebacks = self._plan_thrash(
                    ids, slots, dirty)
                self.writebacks += writebacks
                victims = self._index[evicted]
                self._drop_slots(np.unique(victims[victims >= 0]))
                wedged = kept.size < ids.size
                ids, rows = ids[: kept.size][kept], rows[: kept.size][kept]
                slots = self._index[ids]
                present = slots >= 0
            self.evictions += int(evicted.size)
        pslots = slots[present]
        self._values[pslots] = rows[present]
        self._weights[pslots] = self._generation
        if dirty:
            self._dirty[pslots] = True
        new_ids = ids[~present]
        if new_ids.size:
            nslots = self._claim_slots(new_ids.size)
            self._index[new_ids] = nslots
            self._ids[nslots] = new_ids
            self._values[nslots] = rows[~present]
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
        slots = np.unique(slots[slots >= 0])
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

    def _ensure_store(self, rows: np.ndarray) -> np.ndarray:
        """(Re)allocate the value matrix for ``rows``; returns rows 2-D."""
        rows = np.atleast_2d(np.asarray(rows))
        if self._values is None:
            self._values = np.zeros((self._ids.size, rows.shape[1]),
                                    dtype=rows.dtype)
        elif rows.shape[1] != self._values.shape[1]:
            raise MiddlewareError(
                f"cache row width changed: {self._values.shape[1]} -> "
                f"{rows.shape[1]}")
        else:
            dtype = np.result_type(self._values.dtype, rows.dtype)
            if dtype != self._values.dtype:
                self._values = self._values.astype(dtype)
        return rows

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
        if self._values is not None:
            self._values = _extended(self._values, size, 0)

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

    def _put_one(self, vertex: int, value: np.ndarray,
                 mark_dirty: bool) -> Optional[int]:
        if vertex < 0:
            raise MiddlewareError(f"vertex ids must be >= 0, got {vertex}")
        rows = self._ensure_store(value)
        self._ensure_index(vertex)
        slot = int(self._index[vertex])
        evicted = None
        if slot < 0:
            if self._size >= self.capacity:
                evicted = self._evict_one()
            slot = int(self._claim_slots(1)[0])
            self._index[vertex] = slot
            self._ids[slot] = vertex
        self._values[slot] = rows[0]
        self._weights[slot] = self._generation
        if mark_dirty:
            self._dirty[slot] = True
        return evicted

    def _plan_thrash(self, ids: np.ndarray, slots: np.ndarray, mark: bool
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Plan the per-vertex ``insert()``/``update()`` fold over a
        batch, without touching the tables.

        Every eviction of that fold takes the minimum of ``(dirty,
        weight, id)`` over the residents, and every key the batch writes
        is ``(dirty, generation, id)`` with ``generation`` the largest
        weight there is.  So the residents split into four pools that
        empty strictly in turn — stale clean, fresh clean, stale dirty,
        fresh dirty (fresh: weight == generation) — where the stale
        pools only shrink (one sort up front orders them) and the fresh
        pools are min-heaps of bare ids.  A resident batch member that
        is evicted before its turn simply becomes a miss; one that is
        still resident at its turn moves to a fresh pool, leaving a dead
        copy behind that ``moved`` lets the pops skip.

        Returns ``(evicted, kept, writebacks)``: the evicted ids in fold
        order, a mask over the processed prefix ``ids[:kept.size]`` of
        the batch members resident at the end, and how many evictions
        were dirty write-backs.  The prefix is shorter than the batch
        when the fold wedges on a cache full of pinned dirty rows.
        """
        occ = np.flatnonzero(self._ids >= 0)
        order = occ[np.lexsort((self._ids[occ], self._weights[occ],
                                self._dirty[occ]))]
        pool_of = 2 * self._dirty + (self._weights == self._generation)
        cuts = np.cumsum(np.bincount(pool_of[occ], minlength=4))[:3]
        stale_clean, fresh_clean, stale_dirty, fresh_dirty = (
            part.tolist() for part in np.split(self._ids[order], cuts))
        stale_clean.reverse()  # pop() then takes the stalest
        stale_dirty.reverse()
        pools = (stale_clean, fresh_clean, stale_dirty, fresh_dirty)
        resident = slots >= 0
        #: resident batch members whose turn is still to come -> pool
        pending = dict(zip(ids[resident].tolist(),
                           pool_of[slots[resident]].tolist()))
        moved: Dict[int, int] = {}  # id -> pool its in-place update chose
        evicted: List[int] = []
        lost: List[int] = []  # evicted with no turn left to re-enter
        writebacks = 0
        size, capacity, writeback = self._size, self.capacity, self.writeback
        fresh = pools[3 if mark else 1]  # where the batch's new rows land
        done = 0
        for vertex in ids.tolist():
            home = pending.pop(vertex, None)
            if home is not None:
                pool = 3 if (mark or home >= 2) else 1
                if pool != home:
                    moved[vertex] = pool
                    heappush(pools[pool], vertex)
            else:
                if size < capacity:
                    size += 1
                else:
                    while True:  # smallest live (dirty, weight, id)
                        if stale_clean:
                            pool, victim = 0, stale_clean.pop()
                        elif fresh_clean:
                            pool, victim = 1, heappop(fresh_clean)
                        elif not writeback:
                            pool = -1  # only pinned dirty rows remain
                            break
                        elif stale_dirty:
                            pool, victim = 2, stale_dirty.pop()
                        else:
                            pool, victim = 3, heappop(fresh_dirty)
                        if moved.get(victim, pool) == pool:
                            break
                    if pool < 0:
                        break
                    evicted.append(victim)
                    writebacks += pool >= 2
                    if pending.pop(victim, None) is None:
                        lost.append(victim)
                heappush(fresh, vertex)
            done += 1
        kept = ~np.isin(ids[:done], np.asarray(lost, dtype=np.int64))
        return np.asarray(evicted, dtype=np.int64), kept, writebacks

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

    def take_dirty(self, ids: Optional[np.ndarray] = None
                   ) -> Dict[int, np.ndarray]:
        """Remove and return dirty entries (all, or the given subset).

        The returned mapping is what the agent pushes to the global data
        queue; the entries stay cached but are clean afterwards.
        """
        if ids is None:
            slots = np.flatnonzero(self._dirty)
        else:
            wanted = np.asarray(ids, dtype=np.int64).ravel()
            in_range = (wanted >= 0) & (wanted < self._index.size)
            cand = self._index[wanted[in_range]]
            cand = cand[cand >= 0]
            slots = np.unique(cand[self._dirty[cand]])
        out = {int(v): self._values[s].copy()
               for v, s in zip(self._ids[slots], slots)}
        self._dirty[slots] = False
        return out

    def clear_dirty(self) -> int:
        """Mark every dirty entry clean without materializing the rows
        (the settle-after-sync fast path); returns how many were dirty."""
        n = int(self._dirty.sum())
        if n:
            self._dirty[:] = False
        return n

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class GlobalQueues:
    """The global query queue and global data queue of Algorithm 3."""

    query_lists: Dict[int, np.ndarray] = field(default_factory=dict)
    #: per-node uploads as aligned (ids, rows) arrays
    data_arrays: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)

    def push_query(self, node_id: int, vertex_ids: np.ndarray) -> None:
        """An agent announces the vertices it needs next iteration."""
        self.query_lists[node_id] = np.asarray(vertex_ids, dtype=np.int64)

    def query_union(self, exclude_node: Optional[int] = None) -> np.ndarray:
        """The broadcast union of local query lists.

        ``exclude_node`` yields "vertices some *other* node needs", which
        is what node ``exclude_node`` must upload.
        """
        arrays = [ids for node, ids in self.query_lists.items()
                  if node != exclude_node]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays))

    def push_data(self, node_id: int,
                  entries: Dict[int, np.ndarray]) -> None:
        """An agent uploads the queried subset of its updated vertices."""
        ids = np.fromiter(entries.keys(), dtype=np.int64,
                          count=len(entries))
        rows = (np.stack([np.atleast_1d(v) for v in entries.values()])
                if entries else np.empty((0, 0)))
        self.push_data_arrays(node_id, ids, rows)

    def push_data_arrays(self, node_id: int, ids: np.ndarray,
                         rows: np.ndarray) -> None:
        """Array form of :meth:`push_data`: aligned ids + value rows."""
        self.data_arrays[node_id] = (
            np.asarray(ids, dtype=np.int64).ravel(),
            np.atleast_2d(np.asarray(rows)))

    def fetch_arrays(self, vertex_ids: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch requested vertices as aligned (ids, rows) arrays.

        Later uploads win for an id pushed by several nodes (mirroring
        the historical per-node overwrite order of the mapping form).
        """
        wanted = np.unique(np.asarray(vertex_ids, dtype=np.int64).ravel())
        got_ids: List[np.ndarray] = []
        got_rows: List[np.ndarray] = []
        for ids, rows in self.data_arrays.values():
            if ids.size == 0 or wanted.size == 0:
                continue
            mask = np.isin(ids, wanted)
            if mask.any():
                got_ids.append(ids[mask])
                got_rows.append(rows[mask])
        if not got_ids:
            return (np.empty(0, dtype=np.int64), np.empty((0, 0)))
        all_ids = np.concatenate(got_ids)
        all_rows = np.concatenate(got_rows)
        # keep the last occurrence of each id
        uniq, rev_first = np.unique(all_ids[::-1], return_index=True)
        keep = all_ids.size - 1 - rev_first
        return uniq, all_rows[keep]

    def fetch(self, vertex_ids: np.ndarray) -> Dict[int, np.ndarray]:
        """Fetch requested vertices from the global data queue."""
        ids, rows = self.fetch_arrays(vertex_ids)
        return {int(v): row for v, row in zip(ids, rows)}

    def clear(self) -> None:
        self.query_lists.clear()
        self.data_arrays.clear()
