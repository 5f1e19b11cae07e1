"""Result cache: memoized answers keyed on graph version + query.

A serving deployment sees the same queries over and over — dashboards
refresh the same PageRank, every tenant asks for connected components
of the catalog graph.  Because the whole simulation is deterministic,
a repeated query on an unchanged graph is *guaranteed* to produce
byte-identical values, so the service can answer it from memory at
lookup cost instead of re-running the engine.

The key is ``(graph key, graph version, algorithm, params hash)``:

* the **graph version** comes from the :class:`~repro.serve.store
  .GraphStore` and bumps on every reload, so stale answers can never
  be served after the data changes;
* the **params hash** is a canonical fingerprint of the algorithm's
  parameters (plus engine and iteration cap — anything that can change
  the answer), order-independent and tuple/list-agnostic so the same
  query spelled differently still hits.

Capacity is fixed, and eviction keeps what hits save.  Every lookup,
hit or miss, counts for its key; when a new key enters a full cache,
the resident entry with the smallest ``lookups x compute_ms`` goes
(the least recently used among ties), and the newcomer is always
admitted.  The count table is bounded: every
:data:`COUNT_WINDOW_PER_ENTRY` x capacity lookups halve every count and
drop the zeros (TinyLFU's reset, so old popularity fades), and an
invalidation drops the counts of the versions it drops.  The rule is
deterministic, so served runs stay functions of their inputs.

Every get/put deep-copies the value array, so cached answers are
immune to caller-side mutation — a cache hit is byte-identical to the
recompute, always.  An entry also names the journal sidecar holding
its answer (when the service journals), so a hit's ``finished``
record can point at that file instead of writing a copy.

Two tiers.  Capacity bounds the *resident* entries, the ones holding
values.  An evicted entry that names a sidecar is *spilled*, not
dropped: its metadata stays in an index with no values array, and a
lookup of its key reads the sidecar back through the caller's ``load``
and re-installs the entry as resident — a hit one file read away
instead of an engine run.  A sidecar that is gone, unreadable or not
the answer the index describes is a miss, and the key leaves the
index.  Entries without a sidecar (no journal) are dropped on eviction
as before, so the spill tier exists exactly when the service journals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from ..engines.base import RunResult
from ..errors import ServeError

#: Simulated ms charged for probing the cache and copying out a hit —
#: the serving layer's "fast path" cost, orders of magnitude below any
#: real engine run.
CACHE_LOOKUP_MS = 0.05

#: Lookups between two halvings of every lookup count, per entry of
#: capacity.  Sized on serve-read's request stream (Zipf 1.1 over 48
#: queries, 16 entries): 20 x capacity kept every compute the counts
#: save, 10 x capacity cost 4 more.
COUNT_WINDOW_PER_ENTRY = 20

#: (graph key, graph version, algorithm name, params fingerprint)
CacheKey = Tuple[str, int, str, str]


def params_fingerprint(params: Mapping[str, Any]) -> str:
    """Canonical, order-independent digest of a parameter mapping.

    Mappings are sorted by key, tuples become lists, numpy scalars
    become Python scalars — so ``{"sources": (0, 1)}`` and
    ``{"sources": [0, 1]}`` fingerprint identically, as do dicts built
    in different insertion orders.
    """

    def canon(value: Any) -> Any:
        if isinstance(value, Mapping):
            return {str(k): canon(value[k]) for k in sorted(value)}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        return value

    blob = json.dumps(canon(dict(params)), sort_keys=True,
                      separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CachedResult:
    """A memoized answer: the values plus enough provenance to report.

    ``compute_ms`` is the simulated cost of the run that produced the
    entry — what a cache hit just saved.  ``file`` names the journal's
    result sidecar of that run (None when the service keeps no
    journal).  A spilled entry's ``values`` is None: the answer is in
    ``file``.
    """

    values: np.ndarray
    iterations: int
    converged: bool
    compute_ms: float
    engine: str
    algorithm: str
    file: Optional[str] = None

    def copy(self) -> "CachedResult":
        """The same entry over a private copy of the values."""
        return dataclasses.replace(self, values=self.values.copy())


class ResultCache:
    """Fixed-capacity cache of :class:`CachedResult` that evicts the
    entry whose hits save least, spilling it to its sidecar when it
    names one, with hit/miss accounting."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ServeError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: resident entries, least- to most-recently used
        self._entries: "OrderedDict[CacheKey, CachedResult]" = OrderedDict()
        #: spilled entries: evicted answers that name a sidecar, held
        #: without their values (never resident at the same time)
        self._spilled: Dict[CacheKey, CachedResult] = {}
        #: lookups per key, resident or not (halved every ``_window``)
        self._lookups: Dict[CacheKey, int] = {}
        self._window = COUNT_WINDOW_PER_ENTRY * capacity
        self._since_halving = 0
        #: graph key -> the versions its last keep-set invalidation
        #: dropped (:meth:`dead_counts` checks none is counted again)
        self._dropped: Dict[str, FrozenSet[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: spilled entries read back by a lookup (each one also a hit)
        self.reloads = 0

    @staticmethod
    def key(graph_key: str, graph_version: int, algorithm: str,
            params: Mapping[str, Any]) -> CacheKey:
        return (graph_key, graph_version, algorithm,
                params_fingerprint(params))

    def get(self, key: CacheKey,
            load: Optional[Callable[[CachedResult],
                                    Optional[CachedResult]]] = None
            ) -> Optional[CachedResult]:
        """Count the lookup; on a hit refresh recency and return a
        defensive copy.

        A spilled key hits when ``load`` reads its sidecar back (spilled
        entry -> the full entry, or None when the file is gone or
        unreadable) as the answer the index describes; the entry is
        resident again, which may spill another.  Otherwise the lookup
        is a miss and the key leaves the spilled index."""
        self._lookups[key] = self._lookups.get(key, 0) + 1
        self._since_halving += 1
        if self._since_halving >= self._window:
            self._since_halving = 0
            self._lookups = {k: n >> 1 for k, n in self._lookups.items()
                             if n > 1}
        entry = self._entries.get(key)
        if entry is None and key in self._spilled:
            entry = self._reload(key, load)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.copy()

    def _reload(self, key: CacheKey, load) -> Optional[CachedResult]:
        """Re-install a spilled entry from its sidecar (None: a miss)."""
        spilled = self._spilled.pop(key)
        entry = load(spilled) if load is not None else None
        if entry is None or dataclasses.replace(entry,
                                                values=None) != spilled:
            return None
        self.reloads += 1
        self._install(key, entry)
        return entry

    def put(self, key: CacheKey, result: RunResult,
            file: Optional[str] = None) -> None:
        """Memoize a finished run (its journal sidecar is ``file``)."""
        self._install(key, CachedResult(
            result.values.copy(), result.iterations, result.converged,
            result.total_ms, result.engine_name, result.algorithm_name,
            file))

    def put_entry(self, key: CacheKey, entry: CachedResult) -> bool:
        """Install an already-built entry unless the key is resident.

        The journal-recovery path: replaying a ``finished`` record must
        be idempotent, so an entry that is already resident (an earlier
        replay, or a fresher recompute) is left untouched; a spilled one
        is replaced, as a live recompute replaces it.  Returns True if
        the entry was installed.
        """
        if key in self._entries:
            return False
        self._install(key, entry.copy())
        return True

    def _install(self, key: CacheKey, entry: CachedResult) -> None:
        """Store ``entry`` as the most recent, first evicting, when a
        new key enters a full cache, the smallest ``lookups x
        compute_ms`` (``min`` keeps the first of equals: the least
        recent).  A victim that names a sidecar spills."""
        self._spilled.pop(key, None)
        if key not in self._entries and len(self._entries) >= self.capacity:
            victim = min(self._entries, key=lambda k: self._lookups.get(
                k, 0) * self._entries[k].compute_ms)
            evicted = self._entries.pop(victim)
            self.evictions += 1
            if evicted.file is not None:
                self._spilled[victim] = dataclasses.replace(evicted,
                                                            values=None)
        self._entries[key] = entry
        self._entries.move_to_end(key)

    def invalidate_graph(self, graph_key: str, *,
                         keep_versions=None) -> int:
        """Drop entries for ``graph_key`` (resident and spilled),
        eagerly freeing capacity.

        Version-miss alone is not enough: dead-version entries could
        never be hit again (the version is part of the key), so leaving
        them to eviction fills the cache with garbage.  The dropped
        versions' lookup counts go too.  Called on
        reload (drop everything) and on mutation, where
        ``keep_versions`` preserves entries still reachable — the new
        latest version and any version pinned by an in-flight
        snapshot.  Every drop counts as an invalidation.
        """
        keep = frozenset(keep_versions or ())
        stale = [k for tier in (self._entries, self._spilled) for k in tier
                 if k[0] == graph_key and k[1] not in keep]
        for k in stale:
            self._entries.pop(k, None)
            self._spilled.pop(k, None)
        self.invalidations += len(stale)
        dead = [k for k in self._lookups
                if k[0] == graph_key and k[1] not in keep]
        for k in dead:
            del self._lookups[k]
        if keep_versions is None:
            # a reload or unload: pinned old versions may still be
            # looked up, and an unload restarts versioning at 1
            self._dropped.pop(graph_key, None)
        else:
            self._dropped[graph_key] = frozenset(
                k[1] for k in stale + dead)
        return len(stale)

    def dead_counts(self):
        """Counted keys of a version the last keep-set invalidation of
        its graph dropped — none, unless a lookup named a version no
        snapshot can pin any more."""
        return [k for k in self._lookups
                if k[1] in self._dropped.get(k[0], ())]

    def entries_for(self, graph_key: str, version: int):
        """Resident ``(key, entry)`` pairs for one graph version.

        The mutation path harvests these as warm-start seeds before
        invalidating the version: a cached fixpoint for version N is
        exactly the seed an incremental re-convergence on N+1 wants.
        """
        return [(k, v) for k, v in self._entries.items()
                if k[0] == graph_key and k[1] == version]

    def keys(self):
        """Resident keys, least- to most-recently used."""
        return list(self._entries)

    def check_invariants(self) -> None:
        """Raise :class:`ServeError` unless no key is both resident and
        spilled, the resident tier fits the capacity, and no spilled
        entry holds values."""
        both = self._entries.keys() & self._spilled.keys()
        if both:
            raise ServeError(f"cache keys both resident and spilled: "
                             f"{sorted(both)}")
        if len(self._entries) > self.capacity:
            raise ServeError(f"{len(self._entries)} resident cache "
                             f"entries over capacity {self.capacity}")
        held = [k for k, e in self._spilled.items() if e.values is not None]
        if held:
            raise ServeError(f"spilled cache entries hold values: {held}")

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "spilled": len(self._spilled),
            "reloads": self.reloads,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries
