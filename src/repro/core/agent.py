"""The agent: the upper system's bridge to its daemons (§II-A2, Alg. 2).

An agent lives in a distributed node.  It owns the node's vertex/edge
tables, builds triplet blocks, runs the pipeline-shuffle protocol against
each attached daemon (Algorithm 2), and carries the synchronization
cache.  (The §II-B vertex-edge mapping table is a constant of the
partition: :class:`~repro.graph.partition.PartitionIndex`.)  Its operation interfaces are the
paper's: ``connect`` / ``update`` / ``requestX`` / ``disconnect``, where
the ``requestX`` family is :meth:`Agent.edge_pass` (MSGGen fused with the
node-local MSGMerge), :meth:`Agent.request_apply` (MSGApply) and
:meth:`Agent.request_scatter` (GAS scatter).

Timing: every data movement and kernel charges simulated milliseconds;
an :class:`EdgePassResult` reports both the pipeline makespan (what the
iteration costs) and the per-category busy times (what Fig. 14's
middleware-cost-ratio accounting consumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Generator, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..cluster.node import DistributedNode
from ..errors import (
    AcceleratorsExhausted,
    DaemonDead,
    DeviceFailure,
    FaultError,
    MiddlewareError,
    ProtocolError,
)
from ..fault.monitor import HEARTBEAT_INTERVAL_MS, HeartbeatMonitor
from ..fault.retry import RetryPolicy
from ..fault.straggler import StragglerDetector
from ..ipc import Channel, Join, Now, Recv, Scheduler, Send, Sleep, Spawn
from ..ipc.shm import ShmRegistry
from .blocks import TripletBlock, build_blocks
from .config import MiddlewareConfig
from .daemon import (
    CAT_COMPUTE,
    CAT_DOWNLOAD,
    CAT_INIT,
    CAT_UPLOAD,
    Daemon,
    MSG_COMPUTE_ALL_FINISHED,
    MSG_COMPUTE_FINISHED,
    MSG_EXCHANGE_FINISHED,
    MSG_ROTATE_FINISHED,
)
from .pipeline import PipelineCoefficients
from .sync_cache import LRUVertexCache
from .template import AlgorithmTemplate, MessageSet

#: Reading a cached vertex from the agent's local table instead of
#: downloading it from the upper system costs this fraction of k1/k3.
LOCAL_ACCESS_FACTOR = 0.05

#: Nominal capacity of an "unbounded" cache (``cache_capacity`` unset).
#: The cache's tables grow with residency, so the size costs nothing; it
#: only says where eviction starts on a graph larger than this.
DEFAULT_CACHE_CAPACITY = 1_000_000

#: The two data-transfer steps the shared-memory design eliminates
#: (agent->daemon and daemon->agent copies of the 5-step flow, §III-A1),
#: as a fraction of the download/upload per-entity costs.
NAIVE_COPY_FACTOR = 0.35

#: Agent-internal control message: a speculative backup finished a
#: straggler's block first.  Injected into the straggler's ``to_agent``
#: channel so the agent's single Recv races it against the primary's
#: ComputeFinished — scheduler (time, seq) order is the deterministic
#: tie-break (the earlier *send* wins an exact tie).
MSG_SPECULATED = "SpeculativeResult"

#: How many expected durations a flagged pair's block may run before its
#: speculative copy launches.  A backup then needs about one more, so
#: only a pair whose compute inflation exceeds ``SPECULATION_HEADROOM +
#: 1`` is hedged.
SPECULATION_HEADROOM = 2.0


def _block_runs(src_ids: np.ndarray, block_size: int, ascending: bool
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct source vertices of each block of a pass, in one
    sweep over the pass.

    Block ``k`` covers triplets ``[k * block_size, (k + 1) *
    block_size)``, and its distinct sources are the runs of equal ids
    in its sorted sources.  An ascending ``src_ids`` is sorted within
    every block already, so the runs are read off directly; any other
    order sorts the ``(block, source)`` keys once.  Returns ``(ids,
    counts, bounds, first)``: block ``k``'s distinct sources, ascending,
    are ``ids[bounds[k]:bounds[k + 1]]`` with ``counts`` triplets each,
    and ``first`` marks each id's earliest run in the pass.
    """
    d = src_ids.size
    starts = np.arange(0, d, block_size)
    src = src_ids
    if not ascending:
        src = src_ids[np.lexsort((src_ids, np.arange(d) // block_size))]
    run = np.empty(d, dtype=bool)
    run[0] = True
    np.not_equal(src[1:], src[:-1], out=run[1:])
    run[starts] = True
    at = np.flatnonzero(run)
    ids = src[at]
    counts = np.diff(at, append=d)
    bounds = np.append(np.searchsorted(at, starts), at.size)
    # an ascending pass repeats an id only where its run straddles a
    # block edge, so its earliest run is the one after a different id
    order = slice(None) if ascending else np.argsort(ids, kind="stable")
    ordered = ids[order]
    first = np.empty(ids.size, dtype=bool)
    first[order] = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    return ids, counts, bounds, first


@dataclass
class EdgePassResult:
    """Outcome of one node's (pipelined) edge computation pass."""

    partial: MessageSet
    elapsed_ms: float
    entities: int
    blocks: int
    breakdown: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: cache entries displaced (and, of those, dirty ones written back
    #: early) since the agent's previous pass — this pass's miss-fills
    #: plus the master write-through that followed the previous one
    cache_evictions: int = 0
    cache_writebacks: int = 0


class Agent:
    """One distributed node's agent, attached to its daemons."""

    def __init__(self, node: DistributedNode, registry: ShmRegistry,
                 config: MiddlewareConfig) -> None:
        if not node.accelerators:
            raise MiddlewareError(
                f"node {node.node_id} has no accelerators to plug"
            )
        self.node = node
        self.config = config
        self.registry = registry
        self.daemons: List[Daemon] = []
        for accel in node.accelerators:
            daemon = Daemon(registry.allocate_daemon_id(), accel, registry,
                            config)
            self.daemons.append(daemon)
        self.cache: Optional[LRUVertexCache] = None
        #: the cache's (evictions, writebacks) already reported by a pass
        self._churn_reported = (0, 0)
        #: fraction of a pass's triplets requiring a fresh vertex fetch
        #: (cold caches ~ unique-vertex fraction, warm caches ~ 0)
        self._last_fetch_ratio = 1.0
        self.connected = False
        # fault tolerance: retry policy, degradation state
        self._retry = RetryPolicy()
        self.degraded = False
        # gray-failure tolerance: the straggler detector (replaced by the
        # middleware's shared, cluster-wide instance when one exists)
        self.straggler: Optional[StragglerDetector] = None
        if config.straggler.enabled:
            self.straggler = StragglerDetector()
        self._bind_detector()
        # speculative re-execution bookkeeping for the current pass
        self._spec_pending: List[dict] = []
        self._abandoned: List[Daemon] = []
        # lifetime instrumentation
        self.total_middleware_ms = 0.0
        self.total_entities = 0
        self.recoveries = 0
        self.retries = 0
        self.recovered_passes = 0
        self.heartbeat_verdicts = 0
        # event-loop telemetry accumulated across every pass's scheduler
        self.sched_events = 0
        self.sched_heap_peak = 0

    def _bind_detector(self) -> None:
        """Point every daemon at the agent's current detector (daemons
        observe their own compute durations into it)."""
        for daemon in self.daemons:
            daemon.straggler = self.straggler

    def set_straggler_detector(self, detector: StragglerDetector) -> None:
        """Adopt a shared (cluster-wide) detector — the middleware calls
        this so the cross-daemon median spans every node's daemons."""
        self.straggler = detector
        self._bind_detector()

    # -- operation interfaces (§IV-A2) --------------------------------------------

    def connect(self) -> float:
        """Bring up daemons; under runtime isolation devices init here once.

        Returns the simulated setup cost.
        """
        if self.connected:
            raise ProtocolError(f"agent {self.node.node_id}: already connected")
        self.connected = True
        cost = 0.0
        if self.config.runtime_isolation:
            for daemon in self.daemons:
                cost += daemon.init_cost_ms()
        self._new_cache()
        self.total_middleware_ms += cost
        return cost

    def disconnect(self) -> None:
        """Tear the daemons down (devices released)."""
        self._require_connected()
        for daemon in self.daemons:
            daemon.accelerator.shutdown()
        self.connected = False

    def update(self, vertex_ids: np.ndarray, values: np.ndarray,
               algorithm: AlgorithmTemplate,
               direction: str = "download") -> float:
        """Bulk data synchronization with the upper system (§IV-A2).

        The paper's per-iteration call sequence is ``connect() ->
        update() -> {requestX()} -> update() -> disconnect()``: the first
        ``update`` pulls vertex data down into the agent's tables, the
        second pushes results back.  Returns the simulated cost.  The
        agent holds no copy of ``values`` (they stay in the upper
        system's array): with the cache enabled a download records the
        ids as resident and an upload clears their dirty bits.
        """
        self._require_connected()
        if direction not in ("download", "upload"):
            raise ProtocolError(
                f"update direction must be download/upload, got "
                f"{direction!r}"
            )
        ids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        runtime = self.node.runtime
        if direction == "download":
            cost = runtime.download_ms_per_entity * ids.size
            if self.cache is not None:
                self.cache.insert_many(ids)
        else:
            cost = runtime.upload_ms_per_entity * ids.size
            if self.cache is not None:
                self.cache.take_dirty(ids)
        self.total_middleware_ms += cost
        return cost

    def transfer(self, daemon_index: int, region: str, data,
                 nbytes: int = 0) -> None:
        """Place data in a daemon's shared-memory segment (§IV-A2).

        Zero-copy by construction: the object itself is shared through
        the simulated System V segment, so the daemon observes it
        immediately (§II-B).
        """
        self._require_connected()
        if not 0 <= daemon_index < len(self.daemons):
            raise ProtocolError(
                f"agent {self.node.node_id}: no daemon #{daemon_index}"
            )
        self.daemons[daemon_index].segment.put(region, data, nbytes=nbytes)

    def request_apply(self, values: np.ndarray, merged: MessageSet,
                      algorithm: AlgorithmTemplate
                      ) -> Tuple[np.ndarray, np.ndarray, float]:
        """MSGApply for this node's masters on the fastest daemon.

        Returns ``(new_values, changed_ids, simulated_ms)``; the cost
        covers staging the messages in, the device call, and uploading
        the changed values back.
        """
        self._require_connected()
        daemon = self._fastest_daemon()
        runtime = self.node.runtime
        cost = 0.0
        attempts = 0
        while True:
            cost += daemon.init_cost_ms()
            try:
                new_values, changed, device_ms = daemon.apply_messages(
                    algorithm, values, merged)
                break
            except DeviceFailure as failure:
                attempts += 1
                self.recoveries += 1
                self.retries += 1
                if attempts > self._retry.max_attempts:
                    self._give_up(failure)
                cost += self._retry.backoff_ms(attempts)
        if attempts:
            self.recovered_passes += 1
        cost += device_ms
        cost += runtime.download_ms_per_entity * merged.size
        cost += runtime.upload_ms_per_entity * changed.size
        daemon.release_after_request()
        self.total_middleware_ms += cost
        return new_values, changed, cost

    def note_master_updates(self, changed: np.ndarray) -> None:
        """Mark this node's updated master vertices resident and dirty.

        Called by the engine after it has restricted an apply result to
        the node's own masters; they stay dirty until lazy upload.
        """
        if self.cache is not None:
            self.cache.insert_many(changed, dirty=True)

    def request_scatter(self, affected_edges: int) -> float:
        """GAS scatter pass: activate neighbours of changed vertices.

        Scatter is a pure cost pass (no data result), so a device fault
        simply costs one more initialization.
        """
        self._require_connected()
        daemon = self._fastest_daemon()
        cost = daemon.init_cost_ms() + daemon.scatter_cost_ms(affected_edges)
        daemon.release_after_request()
        self.total_middleware_ms += cost
        return cost

    # -- the pipelined edge pass (§III-A) ------------------------------------------------

    def edge_pass(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                  weights: np.ndarray, values: np.ndarray,
                  algorithm: AlgorithmTemplate) -> EdgePassResult:
        """Process the iteration's triplets through the daemons.

        With ``config.pipeline`` the 3-stage pipeline shuffle runs per
        daemon (Algorithms 1-2 on the simulated scheduler); otherwise the
        naive 5-step sequential flow is timed.  Work is split across
        daemons proportionally to their capacity factors.

        The returned messages are one ``msg_gen`` + ``msg_merge`` over
        the triplets; the blocked pipeline only prices them.  Block
        boundaries move with every timing-adaptive input — cache hit
        ratios, straggler inflation, daemon shares — so keeping values
        out of the blocks is what makes "those knobs shape cost, never
        values" exact at the bit level; checkpoint-resume recovery (a
        fresh agent re-executing a warmed agent's superstep) depends on
        that.

        Raises :class:`~repro.errors.MiddlewareError` when the arrays do
        not pair up into triplets or an endpoint does not index
        ``values``.
        """
        self._require_connected()
        d = int(src_ids.size)
        if dst_ids.size != d or weights.size != d:
            raise MiddlewareError(
                f"agent {self.node.node_id}: {d} sources, {dst_ids.size} "
                f"destinations and {weights.size} weights do not pair up "
                f"into triplets")
        if d == 0:
            return EdgePassResult(algorithm.empty_messages(), 0.0, 0, 0)
        ascending = not bool((src_ids[1:] < src_ids[:-1]).any())
        self._check_endpoints(src_ids, dst_ids, len(values), ascending)

        if self.cache is not None:
            self.cache.tick()
        msgs = algorithm.msg_gen(src_ids, dst_ids, weights, values)
        partial = algorithm.msg_merge(dst_ids, msgs)

        # Failure recovery (§II-A's transparent hardware management): a
        # device fault, heartbeat verdict, or shm corruption aborts the
        # pass; the agent backs off, respawns the daemons (fresh segment,
        # fresh channels, device re-init), and re-runs.  Work fetched
        # before the fault stays cached, so the retry is cheaper.
        lost_ms = 0.0
        attempts = 0
        while True:
            try:
                elapsed, total_blocks, breakdown, hits_misses = \
                    self._attempt_pass(src_ids, dst_ids, msgs, algorithm,
                                       ascending)
                break
            except (DeviceFailure, FaultError) as failure:
                attempts += 1
                self.recoveries += 1
                self.retries += 1
                if isinstance(failure, DaemonDead):
                    self.heartbeat_verdicts += 1
                lost_ms += getattr(failure, "elapsed_ms", 0.0)
                if attempts > self._retry.max_attempts:
                    self._give_up(failure)
                lost_ms += self._retry.backoff_ms(attempts)
                for daemon in self.daemons:
                    daemon.respawn()
        if attempts:
            self.recovered_passes += 1
        for daemon in self.daemons:
            daemon.note_pass_end()
        elapsed += lost_ms
        if lost_ms:
            breakdown[CAT_INIT] = breakdown.get(CAT_INIT, 0.0) + lost_ms

        result = EdgePassResult(
            partial=partial,
            elapsed_ms=elapsed,
            entities=d,
            blocks=total_blocks,
            breakdown=breakdown,
            cache_hits=hits_misses[0],
            cache_misses=hits_misses[1],
        )
        if self.cache is not None:
            churn = (self.cache.evictions, self.cache.writebacks)
            result.cache_evictions = churn[0] - self._churn_reported[0]
            result.cache_writebacks = churn[1] - self._churn_reported[1]
            self._churn_reported = churn
        self.total_middleware_ms += elapsed
        self.total_entities += d
        if d:
            self._last_fetch_ratio = result.cache_misses / d
        return result

    def _check_endpoints(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                         n: int, ascending: bool) -> None:
        """Refuse triplets whose endpoints do not index the ``n`` vertex
        values: numpy would wrap a negative id around, and an id past
        the end would surface later as a message to no vertex.  Ascending
        sources are bounded by their first and last."""
        src_lo, src_hi = ((src_ids[0], src_ids[-1]) if ascending
                          else (src_ids.min(), src_ids.max()))
        for role, lo, hi in (("source", src_lo, src_hi),
                             ("destination", dst_ids.min(), dst_ids.max())):
            if lo < 0 or hi >= n:
                raise MiddlewareError(
                    f"agent {self.node.node_id}: {role} ids span "
                    f"[{lo}, {hi}], outside the {n} vertices [0, {n})")

    def _attempt_pass(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                      msgs: np.ndarray, algorithm: AlgorithmTemplate,
                      ascending: bool):
        """One attempt at timing the (pipelined) pass; raises
        DeviceFailure (or a FaultError) with the simulated time burned so
        far attached."""
        d = int(src_ids.size)
        shares = self._daemon_shares()
        bounds = np.floor(np.cumsum(shares) * d).astype(np.int64)
        bounds[-1] = d
        sched = Scheduler()
        monitor: Optional[HeartbeatMonitor] = None
        plan = self.config.fault_plan
        if (self.config.pipeline and plan is not None
                and plan.requires_monitor):
            monitor = HeartbeatMonitor()
        self._spec_pending = []
        self._abandoned = []
        hits_misses = [0, 0]
        lo = 0
        total_blocks = 0
        init_ms = 0.0
        for daemon, hi in zip(self.daemons, bounds):
            # the pass touches the daemon's segment; catch corruption
            # before any data is consumed from it
            daemon.verify_segment()
            daemon.heartbeat = monitor
            daemon.pass_idle = False
            hi = int(hi)
            if hi <= lo:
                daemon.pass_idle = True
                continue
            init_ms = max(init_ms, daemon.init_cost_ms())
            blocks = self._build_blocks(
                daemon, algorithm, src_ids[lo:hi], dst_ids[lo:hi],
                msgs[lo:hi], hits_misses, ascending)
            total_blocks += len(blocks)
            if self.config.pipeline:
                if monitor is not None:
                    monitor.register(daemon.daemon_id, sched.clock.now)
                sched.spawn(daemon.iteration_process(),
                            name=f"daemon{daemon.daemon_id}", daemon=True)
                sched.spawn(
                    self._pipeline_process(daemon, blocks),
                    name=f"agent{self.node.node_id}->d{daemon.daemon_id}")
            else:
                sched.spawn(
                    self._run_blocks(daemon, blocks, copies=True),
                    name=f"agent{self.node.node_id}-seq")
            lo = hi
        if monitor is not None and monitor.tracked:
            sched.spawn(monitor.watchdog(),
                        name=f"watchdog{self.node.node_id}", daemon=True)
        if init_ms:
            # devices (re-)initialize before the pass; concurrent daemons
            # overlap, so charge the slowest.
            sched.time_by_category[CAT_INIT] = (
                sched.time_by_category.get(CAT_INIT, 0.0) + init_ms)
        try:
            elapsed = sched.run() + init_ms
        except (DeviceFailure, FaultError) as failure:
            failure.elapsed_ms = sched.clock.now + init_ms
            raise
        finally:
            self._settle_speculation(sched.clock.now)
            self.sched_events += sched.events_popped
            if sched.heap_peak > self.sched_heap_peak:
                self.sched_heap_peak = sched.heap_peak

        for daemon in self.daemons:
            daemon.release_after_request()

        breakdown = dict(sched.time_by_category)
        return elapsed, total_blocks, breakdown, hits_misses

    # -- internals -----------------------------------------------------------------

    def _require_connected(self) -> None:
        if not self.connected:
            raise ProtocolError(
                f"agent {self.node.node_id}: call connect() first"
            )

    def _give_up(self, failure: Exception) -> None:
        """Retry budget exhausted: degrade to the host path, or re-raise.

        With ``config.degrade_to_host`` the node's accelerators are
        written off for the rest of the job and the engine is told to
        recover (checkpoint rollback + CPU baseline path for this node)
        via :class:`~repro.errors.AcceleratorsExhausted`.
        """
        if self.config.degrade_to_host:
            self.degraded = True
            raise AcceleratorsExhausted(
                f"agent {self.node.node_id}: accelerators exhausted after "
                f"{self._retry.max_attempts} retries ({failure})",
                node_id=self.node.node_id,
            ) from failure
        raise failure

    def flush_cache(self) -> None:
        """Drop all cached vertex state (checkpoint rollback support).

        After a rollback the values the cache was warmed with never
        happened; the next pass re-downloads on demand.
        """
        self._new_cache()
        self._last_fetch_ratio = 1.0

    def _new_cache(self) -> None:
        """Install an empty vertex cache per the config (None: caching
        is off); nothing of it has been reported by a pass yet."""
        self.cache = None
        if self.config.sync_cache:
            capacity = self.config.cache_capacity or DEFAULT_CACHE_CAPACITY
            self.cache = LRUVertexCache(capacity)
        self._churn_reported = (0, 0)

    def _fastest_daemon(self) -> Daemon:
        """The daemon single-device requests (apply, scatter) run on.

        Nominally the lowest per-entity model time; with online
        re-estimation the model time is discounted by the observed
        compute inflation, steering requests off a gray-failed device
        (healthy daemons observe exactly 1.0, so fault-free selection
        is unchanged — ties keep breaking toward the lowest id).
        """
        return min(self.daemons, key=lambda d: (
            d.accelerator.model.per_entity_ms * self._inflation(d),
            d.daemon_id))

    def _daemon_shares(self) -> np.ndarray:
        """Per-daemon work split, Lemma 2 applied inside the node.

        Nominally proportional to capacity factors.  With online
        re-estimation, each daemon's capacity is discounted by its
        observed compute inflation (EWMA of observed/expected) — a
        gray-failed daemon running 4x slow gets ~1/4 of its nominal
        share next pass.  Healthy daemons observe inflation exactly
        1.0, so the fault-free split is untouched.
        """
        caps = np.array([d.accelerator.model.capacity_factor()
                         / self._inflation(d) for d in self.daemons])
        return caps / caps.sum()

    def _inflation(self, daemon: Daemon) -> float:
        """The observed compute inflation online re-estimation discounts
        ``daemon`` by: 1.0 without re-estimation (scaling by exactly 1.0
        is exact), and at least 1.0 with it."""
        if self.straggler is None or not self.config.straggler.reestimate:
            return 1.0
        return max(1.0, self.straggler.inflation(daemon.daemon_id,
                                                 "compute"))

    def coefficients_for(self, daemon: Daemon) -> PipelineCoefficients:
        """Effective Eq. 2 coefficients of this agent-daemon pair.

        The download slope adapts to the observed cache hit rate (a hit
        costs ``LOCAL_ACCESS_FACTOR * k1``) and the upload slope to lazy
        uploading, so the Lemma-1 block-size choice reflects what the
        stages will actually cost — the paper's "self-adaptive to the
        workloads" behaviour.  Without caching this is the raw model.
        """
        runtime = self.node.runtime
        k1 = runtime.download_ms_per_entity
        k3 = runtime.upload_ms_per_entity
        k1 = k1 * self._last_fetch_ratio + LOCAL_ACCESS_FACTOR * k1
        if self.cache is not None and self.config.lazy_upload:
            k3 *= LOCAL_ACCESS_FACTOR
        return PipelineCoefficients(
            k1=k1,
            k2=daemon.accelerator.model.per_entity_ms,
            k3=k3,
            a=daemon.accelerator.model.call_ms,
        )

    def _block_size_for(self, daemon: Daemon, d: int) -> int:
        if self.config.block_size is not None:
            return self.config.block_size
        return self.coefficients_for(daemon).choose_block_size(d)

    def _build_blocks(self, daemon: Daemon, algorithm: AlgorithmTemplate,
                      src_ids: np.ndarray, dst_ids: np.ndarray,
                      msgs: np.ndarray, hits_misses: List[int],
                      ascending: bool) -> List[TripletBlock]:
        """Slice triplets into blocks, tagging cache-miss fetch volumes.

        Each block fetches its distinct source vertices (its paired
        vertex block, §II-B) that miss the cache, and those become
        resident before the next block looks (§III-B2).  The accounting
        runs once per pass: a block's distinct sources are the runs of
        its sources in order (:func:`_block_runs`), read off with no
        sort when ``src_ids`` is ascending, as every in-tree caller
        passes it.  The cache then sees them through
        :meth:`_fetch_misses`.
        """
        block_size = self._block_size_for(daemon, int(src_ids.size))
        blocks = list(build_blocks(dst_ids, msgs, block_size, algorithm))
        ids, counts, bounds, first = _block_runs(src_ids, block_size,
                                                 ascending)
        if self.cache is None:
            # no cache: every block fetches each of its distinct sources
            fetched = np.diff(bounds)
            hits_misses[1] += int(ids.size)
        else:
            fetched = self._fetch_misses(ids, counts, bounds, first,
                                         hits_misses)
        for block, count in zip(blocks, fetched.tolist()):
            block.fetched_entities = count
        return blocks

    def _fetch_misses(self, ids: np.ndarray, counts: np.ndarray,
                      bounds: np.ndarray, first: np.ndarray,
                      hits_misses: List[int]) -> np.ndarray:
        """Walk the blocks' distinct sources (:func:`_block_runs`)
        through the cache in block order: a resident source is a hit
        for each of its triplets and gets its weight bumped; the misses
        are fetched, then inserted.  Returns each block's fetch count.

        When the pass's new vertices fit the cache's vacancy no insert
        can evict, so a source misses exactly in the first block that
        sees it unless it was resident before the pass, and every
        weight the walk writes is the current generation.  One
        ``contains_many`` + ``insert_many`` + ``touch`` then leave the
        resident set, weights, dirty bits and hit count the walk would.
        """
        cache = self.cache
        new = first & ~cache.contains_many(ids)
        n_new = int(np.count_nonzero(new))
        if n_new <= cache.capacity - len(cache):
            cache.insert_many(ids[new])
            hit = ~new
            cache.touch(ids[hit])
            hits_misses[0] += int(counts[hit].sum())
            hits_misses[1] += n_new
            # every block has a run, so no reduceat segment is empty
            return np.add.reduceat(new, bounds[:-1], dtype=np.int64)
        fetched = np.empty(bounds.size - 1, dtype=np.int64)
        edges = bounds.tolist()
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            block_ids = ids[lo:hi]
            in_cache = cache.contains_many(block_ids)
            cache.touch(block_ids[in_cache])
            miss_ids = block_ids[~in_cache]
            fetched[k] = miss_ids.size
            hits_misses[0] += int(counts[lo:hi][in_cache].sum())
            hits_misses[1] += int(miss_ids.size)
            cache.insert_many(miss_ids)
        return fetched

    def refresh_cache(self, vertex_ids: np.ndarray) -> None:
        """Keep vertices delivered at synchronization warm.

        Algorithm 3's last step (``s.Update(Fetch(gdq, s_q))``): the
        global data queue hands each agent the queried vertices' new
        values, so they need no re-download next iteration.  Only
        already-cached vertices refresh.
        """
        if self.cache is None:
            return
        ids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        self.cache.insert_many(ids[self.cache.contains_many(ids)])

    def settle_dirty(self) -> None:
        """Clean the lazy-upload buffer after a global synchronization.

        The sync collective reconciles every changed master with the
        upper system's tables (the engine charges its cost), so the
        vertices the cache held dirty for lazy upload are no longer
        pending; they stay cached, clean.
        """
        if self.cache is not None:
            self.cache.clear_dirty()

    def invalidate_cache(self, vertex_ids: np.ndarray) -> None:
        """Drop cache entries made stale by foreign updates."""
        if self.cache is None:
            return
        self.cache.invalidate_many(np.asarray(vertex_ids).ravel())

    def _stage(self, daemon: Daemon, block: TripletBlock, stage: str,
               lease: bool = False) -> Generator:
        """One transfer stage of ``block`` on ``daemon``: price it, lease
        it on the pair's heartbeat (``lease``), sleep it out, and feed
        the straggler detector observed against expected.

        A download fetches each distinct missing source vertex (the
        paper's vertex block) plus a cheap local join per triplet; an
        upload ships the block-local merge's entries, into the agent
        cache when uploads are lazy (the real upload happens at
        synchronization, for queried vertices only).  An armed
        ``shm_slow`` gray fault inflates the pair's transfer cost.
        """
        if stage == "download":
            k1 = self.node.runtime.download_ms_per_entity
            expected = (k1 * block.fetched_entities
                        + k1 * LOCAL_ACCESS_FACTOR * block.num_entities)
            entities, category = block.num_entities, CAT_DOWNLOAD
        else:
            k3 = self.node.runtime.upload_ms_per_entity
            if self.cache is not None and self.config.lazy_upload:
                k3 *= LOCAL_ACCESS_FACTOR
            expected = k3 * block.merged_size
            entities, category = block.merged_size, CAT_UPLOAD
        cost = expected * daemon.transfer_inflation
        if lease:
            yield from self._beat(daemon, busy_ms=cost)
        yield Sleep(cost, category)
        if self.straggler is not None and entities > 0:
            self.straggler.observe(daemon.daemon_id, "transfer",
                                   entities, cost, expected)

    # -- Algorithm 2 (agent side of the pipeline) ------------------------------------------

    def _beat(self, daemon: Daemon, busy_ms: float = 0.0) -> Generator:
        """Agent-side heartbeat for the pair's monitor entry.

        ``busy_ms > 0`` declares an upcoming leased wait (download /
        upload).
        """
        if daemon.heartbeat is not None:
            now = yield Now()
            daemon.heartbeat.beat(daemon.daemon_id, now,
                                  busy_until=(now + busy_ms) if busy_ms
                                  else None)

    def _pipeline_process(self, daemon: Daemon,
                          blocks: List[TripletBlock]) -> Generator:
        areas = daemon.areas
        block_iter = iter(blocks)
        yield from self._download_thread(daemon, block_iter)
        yield Send(daemon.to_daemon, MSG_EXCHANGE_FINISHED)
        upload_h = download_h = None
        expect_rotate = True
        outcome: Optional[dict] = None
        compute_start = 0.0
        while True:
            msg = yield Recv(daemon.to_agent)
            yield from self._beat(daemon)
            speculated = isinstance(msg, tuple) and msg[0] == MSG_SPECULATED
            if not speculated and (msg == MSG_ROTATE_FINISHED) != \
                    expect_rotate:
                # protocol desync: a control message was lost in flight.
                # Acting on the out-of-order message would silently skip
                # blocks, so the agent parks without beating; the
                # watchdog converts the silence into a DaemonDead
                # verdict and the pass is retried from scratch.
                yield Recv(Channel(
                    f"agent{self.node.node_id}-desync{daemon.daemon_id}"))
            if speculated:
                yield from self._adopt_speculation(
                    daemon, msg, compute_start, block_iter,
                    upload_h, download_h)
                return
            if msg == MSG_ROTATE_FINISHED:
                expect_rotate = False
                compute_start = yield Now()
                if self._speculation_armed(daemon):
                    # the pair is a flagged straggler with a block on the
                    # device: hedge it on a watcher that re-issues the
                    # same block to an idle daemon if the budget expires
                    outcome = {"done": False}
                    yield Spawn(
                        self._speculation_watcher(
                            daemon, areas.c.block, outcome),
                        name=f"Speculate.d{daemon.daemon_id}", daemon=True)
                upload_h = yield Spawn(
                    self._upload_thread(daemon),
                    name="Thread.Upload", daemon=False)
                download_h = yield Spawn(
                    self._download_thread(daemon, block_iter),
                    name="Thread.Download", daemon=False)
            elif msg == MSG_COMPUTE_FINISHED:
                expect_rotate = True
                if outcome is not None:
                    outcome["done"] = True  # the primary won this block
                    outcome = None
                yield Join(upload_h)
                yield Join(download_h)
                yield from self._beat(daemon)
                yield Send(daemon.to_daemon, MSG_EXCHANGE_FINISHED)
            elif msg == MSG_COMPUTE_ALL_FINISHED:
                yield Join(upload_h)
                yield Join(download_h)
                # the pair finished cleanly: release it from liveness
                # tracking (other pairs may legitimately run much
                # longer) and offer it as a speculation backup
                if daemon.heartbeat is not None:
                    daemon.heartbeat.forget(daemon.daemon_id)
                daemon.pass_idle = True
                return
            else:
                raise ProtocolError(
                    f"agent {self.node.node_id}: unexpected message {msg!r}"
                )

    def _upload_thread(self, daemon: Daemon) -> Generator:
        area = daemon.areas.u
        if area.result is not None:
            yield from self._stage(daemon, area.result, "upload", lease=True)
            area.clear()

    def _download_thread(self, daemon: Daemon,
                         block_iter: Iterator[TripletBlock]) -> Generator:
        block = next(block_iter, None)
        if block is not None:
            yield from self._stage(daemon, block, "download", lease=True)
            daemon.areas.n.block = block

    # -- speculative block re-execution (gray-failure response) ---------------------------------

    def _speculation_armed(self, daemon: Daemon) -> bool:
        """Hedge this pair's next block?  Only when the detector has
        flagged it, its compute EWMA says a backup launched after
        ``SPECULATION_HEADROOM`` expected durations and running one more
        can still finish first, and a potential backup exists on this
        agent (LATE's rule: hedge only what a copy can win)."""
        det = self.straggler
        return (det is not None
                and det.is_straggler(daemon.daemon_id)
                and det.inflation(daemon.daemon_id, "compute")
                > SPECULATION_HEADROOM + 1.0
                and any(d is not daemon for d in self.daemons))

    def _fastest_idle_daemon(self, exclude: Daemon) -> Optional[Daemon]:
        """The backup candidate: fastest unflagged daemon that already
        finished (or never had) work this pass.  Deterministic tie-break
        by daemon id."""
        candidates = [
            d for d in self.daemons
            if d is not exclude and d.pass_idle
            and not (self.straggler is not None
                     and self.straggler.is_straggler(d.daemon_id))]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda d: (d.accelerator.model.per_entity_ms,
                                  d.daemon_id))

    def _speculation_watcher(self, daemon: Daemon,
                             block: Optional[TripletBlock],
                             outcome: dict) -> Generator:
        """Hedge one block of a flagged straggler (Spark-style
        speculative re-execution, first finisher wins).

        Sleeps out the block's cost-model budget; if the primary has not
        reported by then, the same block is re-issued to the fastest
        idle daemon.  Whichever copy finishes first wins — the loser's
        device time is charged to ``speculative_wasted_ms``.  Runs as a
        scheduler daemon: an in-flight backup never extends the pass.
        """
        if block is None:
            return
        coeffs = self.coefficients_for(daemon)
        budget = coeffs.t_c(block.num_entities) * SPECULATION_HEADROOM
        yield Sleep(budget)
        backup = None
        while True:
            if outcome["done"]:
                return  # the primary made it within budget
            backup = self._fastest_idle_daemon(exclude=daemon)
            if backup is not None:
                break
            yield Sleep(HEARTBEAT_INTERVAL_MS)
        backup.pass_idle = False
        duration = backup.compute_block(block)
        start = yield Now()
        entry = {"resolved": False, "duration": duration, "start": start}
        self._spec_pending.append(entry)
        yield Sleep(duration, CAT_COMPUTE)
        entry["resolved"] = True
        if outcome["done"]:
            # the primary finished while the backup was mid-kernel: the
            # backup's whole device time was wasted
            if self.straggler is not None:
                self.straggler.record_loss(duration)
            backup.pass_idle = True
            return
        outcome["done"] = True
        yield Send(daemon.to_agent, (MSG_SPECULATED, block, backup))

    def _adopt_speculation(self, daemon: Daemon, msg: tuple,
                           compute_start: float,
                           block_iter: Iterator[TripletBlock],
                           upload_h, download_h) -> Generator:
        """A backup beat the straggler to its block: adopt the backup's
        result, abandon the primary, and drain the remaining blocks on
        the backup."""
        _, result, backup = msg
        now = yield Now()
        if self.straggler is not None:
            # what the abandoned primary burned before being overtaken
            self.straggler.record_win(now - compute_start)
        if daemon.heartbeat is not None:
            daemon.heartbeat.forget(daemon.daemon_id)
        # the primary's in-flight compute is void; its stale
        # ComputeFinished is flushed by reset_protocol() at pass end
        self._abandoned.append(daemon)
        if upload_h is not None:
            yield Join(upload_h)
        if download_h is not None:
            yield Join(download_h)
        yield from self._stage(backup, result, "upload")
        # the rest of the abandoned pair's blocks run on the backup, one
        # after another (its own pipeline already ran; a healthy device
        # still beats a gray-failed one's pace).  The download thread
        # already paid for the n-area block (if any): the backup picks
        # it up from shared memory for free.
        yield from self._run_blocks(backup, block_iter, daemon.areas.n.block)
        backup.pass_idle = True

    def _settle_speculation(self, now: float) -> None:
        """End-of-pass sweep: backups still mid-kernel when the pass
        ended are charged as losses; abandoned primaries get a clean
        protocol state for the next pass."""
        for entry in self._spec_pending:
            if not entry["resolved"] and self.straggler is not None:
                self.straggler.record_loss(
                    min(entry["duration"], now - entry["start"]))
        self._spec_pending = []
        for daemon in self._abandoned:
            daemon.reset_protocol()
        self._abandoned = []

    # -- blocks one after another (pipeline disabled; speculative drains) ------------------------

    def _run_blocks(self, daemon: Daemon, blocks: Iterable[TripletBlock],
                    staged: Optional[TripletBlock] = None,
                    copies: bool = False) -> Generator:
        """Download -> compute -> upload, block after block, nothing
        overlapping.  ``staged`` runs first and is already downloaded.
        With ``copies`` (the naive 5-step flow) each block also pays the
        agent<->daemon copies in and out that the shared-memory design
        eliminates (§III-A2)."""
        runtime = self.node.runtime
        copy_in = runtime.download_ms_per_entity * NAIVE_COPY_FACTOR
        copy_out = runtime.upload_ms_per_entity * NAIVE_COPY_FACTOR
        if staged is not None:
            blocks = chain((staged,), blocks)
        for block in blocks:
            if block is not staged:
                yield from self._stage(daemon, block, "download")
            if copies:
                yield Sleep(copy_in * block.num_entities, CAT_DOWNLOAD)
            yield Sleep(daemon.compute_block(block), CAT_COMPUTE)
            if copies:
                yield Sleep(copy_out * block.merged_size, CAT_UPLOAD)
            yield from self._stage(daemon, block, "upload")
