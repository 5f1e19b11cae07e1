"""The iterative distributed engine core shared by GraphX and PowerGraph.

One :class:`IterativeEngine` drives the BSP/GAS iteration over a
partitioned graph on a simulated cluster, either computing on the nodes'
host runtimes ("GraphX"/"PowerGraph" bars of Fig. 8) or delegating the
per-node computation to plugged GX-Plug agents ("CPU+"/"GPU+" bars).

A superstep is an *order* over the same phase calls (§IV-A), and every
rule of a phase is written once:

* **edge phase** — one node's MSGGen + MSGMerge over its selected
  triplets, on its agent or its host runtime.  Nodes run in parallel, so
  a superstep pays the slowest node (the balancing objective of §III-C).
* **global combine** — partial message sets combine associatively.
* **apply phase** — one node folds the messages addressed to its masters
  into the vertex table (MSGApply) and writes them through to its cache.
* **synchronization** — the network collective plus the data uploads
  (trimmed by lazy uploading, §III-B2b), then agent cache entries made
  stale by foreign updates are refreshed or invalidated.

The *strict* order (``_run_iteration``) is one pass per node, one
combine, one apply per node, one sync — skipped when the detector of
§III-B3 proves no inter-node traffic is needed.  The *combined* order
(``_run_superstep_combined``) is §III-B3's "logically combined
iteration" for monotone algorithms: each node loops pass -> apply over
its own masters to local quiescence, and one sync delivers the rest.

Simulated results are *real*: the engine's values equal the algorithm's
single-machine reference bit-for-bit, which the integration tests assert
for every engine/config combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..core.config import check_cost
from ..core.balance import (
    balancing_factors,
    cluster_coefficients,
    estimate_coefficients,
    link_adjusted_coefficients,
    network_coefficients,
    rebalanced_shares,
)
from ..core.middleware import GXPlug
from ..core.sync_skip import SkipDetector
from ..core.template import AlgorithmTemplate, MessageSet
from ..errors import AcceleratorsExhausted, EngineError, NodeUnreachable
from ..fault.checkpoint import Checkpoint, CheckpointStore
from ..fault.report import _shared_fields, fault_report
from ..graph.partition import PartitionedGraph, partition

#: simulated bytes per float64 payload cell crossing the network
BYTES_PER_CELL = 8
#: simulated bytes per vertex id in the global query queue broadcast
BYTES_PER_ID = 8

#: Rollback budget floor: every rollback permanently degrades at least one
#: node to its host path, so a run can need at most one per node (the
#: effective limit is ``max(MAX_ROLLBACKS, num_nodes)``).
MAX_ROLLBACKS = 8

#: Online re-estimation repartitions when the estimated Lemma-2 shares
#: are this far (total variation) from the current partition's ...
SHARE_DIVERGENCE = 0.10
#: ... and at least this many supersteps after the previous one.
REBALANCE_COOLDOWN = 2

#: The hot-path phases whose wall-clock time the engine accounts
#: (``time.perf_counter`` deltas; see ``repro.bench.hotpath``).
WALL_PHASES = ("gen", "merge", "apply", "sync", "cache")


def _concat_ids(parts: List[np.ndarray]) -> np.ndarray:
    """The vertex ids of ``parts`` in one array (duplicates kept)."""
    return (np.concatenate(parts) if parts
            else np.empty(0, dtype=np.int64))


def _take(messages: MessageSet, mask: np.ndarray) -> MessageSet:
    """The messages ``mask`` selects (``np.compress`` measures several
    times faster than boolean indexing on these masks, ids and rows
    alike)."""
    return MessageSet(np.compress(mask, messages.ids),
                      np.compress(mask, messages.data, axis=0))


@dataclass
class IterationStats:
    """Everything recorded about one engine superstep."""

    index: int
    active_edges: int = 0
    compute_ms: float = 0.0      # slowest node's edge pass
    apply_ms: float = 0.0        # slowest node's apply
    sync_ms: float = 0.0         # global synchronization (0 when skipped)
    skipped: bool = False
    changed_vertices: int = 0
    uploads: int = 0             # vertex values shipped at sync time
    cache_hits: int = 0
    cache_misses: int = 0
    #: cache rows displaced / dirty rows written back early (thrash)
    cache_evictions: int = 0
    cache_writebacks: int = 0
    node_compute_ms: List[float] = field(default_factory=list)
    #: entities (triplets) each node processed, aligned with
    #: ``node_compute_ms`` — the (d_j, T_j) pairs online Lemma-2
    #: re-estimation feeds into ``estimate_coefficients``
    node_entities: List[int] = field(default_factory=list)
    #: computation iterations this superstep absorbed (>1 when
    #: synchronization skipping let nodes keep iterating locally)
    local_iterations: int = 1
    # fault-tolerance telemetry (repro.fault)
    faults_injected: int = 0     # plan events armed for this superstep
    retries: int = 0             # backoff retries spent recovering it
    recoveries: int = 0          # daemon recoveries (respawn cycles)
    checkpoint_ms: float = 0.0   # snapshot cost charged after it
    # network-transport telemetry (repro.cluster.network)
    retransmits: int = 0         # collective fragments re-sent
    dup_drops: int = 0           # duplicate deliveries dropped
    net_wasted_ms: float = 0.0   # recovery overhead inside sync_ms

    @property
    def total_ms(self) -> float:
        return (self.compute_ms + self.apply_ms + self.sync_ms
                + self.checkpoint_ms)


@dataclass(frozen=True)
class StepEvent:
    """One scheduling quantum of a stepwise engine run.

    Yielded by :meth:`IterativeEngine.run_stepwise` after every completed
    superstep (``kind == "superstep"``) and after every checkpoint
    rollback (``kind == "rollback"``), so an external scheduler — the
    serving layer's time-slicer — can interleave several runs at
    superstep granularity and attribute every simulated millisecond to
    the job that spent it.
    """

    kind: str                  # "superstep" | "rollback"
    iteration: int             # engine iteration after this quantum
    sim_ms: float              # simulated ms this quantum charged
    converged: bool = False    # True on the final superstep of a run
    #: True when this quantum saved a checkpoint — the signal the
    #: serving layer uses to externalize a fresh durable resume point.
    #: A *converged* superstep's checkpoint is not a resume point: a run
    #: resumed from it would execute one more superstep than the
    #: uninterrupted run, so resume from the checkpoint before it.
    checkpointed: bool = False


@dataclass
class RunResult:
    """Outcome of one engine run.

    The fields it shares with :class:`~repro.fault.report.FaultReport`
    are one record: the engine writes the rollback, rebalance and
    re-estimation counts, and copies the rest from the run's fault
    report, the one reader of the middleware's run totals."""

    values: np.ndarray
    iterations: int
    total_ms: float
    setup_ms: float
    converged: bool
    stats: List[IterationStats]
    breakdown: Dict[str, float]      # middleware / device / engine ms
    engine_name: str
    algorithm_name: str
    skipped_iterations: int = 0
    #: checkpoint rollbacks taken after unrecoverable node faults
    rollbacks: int = 0
    #: simulated ms burned on supersteps discarded by rollbacks
    wasted_ms: float = 0.0
    #: nodes that finished the run on their host (CPU) compute path
    degraded_nodes: List[int] = field(default_factory=list)
    #: Lemma-2 repartitions triggered by node degradation
    rebalance_events: int = 0
    #: simulated ms spent exchanging partitions during rebalances
    rebalance_ms: float = 0.0
    #: run totals from the resilient transport (0 without middleware)
    retransmits: int = 0
    dup_drops: int = 0
    net_wasted_ms: float = 0.0
    # gray-failure tolerance (repro.fault.straggler)
    #: soft straggler verdicts issued by the detector during the run
    straggler_verdicts: int = 0
    #: speculative block re-executions where the backup finished first
    speculative_wins: int = 0
    #: speculative re-executions whose backup work was discarded
    speculative_losses: int = 0
    #: simulated device ms burned on losing copies (both directions)
    speculative_wasted_ms: float = 0.0
    #: (node, superstep) coefficient observations folded into the online
    #: Lemma-2 estimate
    coeff_updates: int = 0
    #: Lemma-2 repartitions triggered by estimated-share divergence
    #: (no degradation involved; disjoint from ``rebalance_events``)
    online_rebalances: int = 0
    #: slow-uplink verdicts issued by the per-link straggler detector
    link_verdicts: int = 0
    #: simulated ms of link gray-fault inflation charged by the transport
    link_slow_ms: float = 0.0
    #: *wall-clock* seconds this run burned, total and split by phase
    #: (gen / merge / apply / sync / cache).  Orthogonal to every
    #: simulated-ms figure: simulated time models the hardware, wall
    #: time measures this Python implementation's hot path.
    wall_total_s: float = 0.0
    wall_s: Dict[str, float] = field(default_factory=dict)
    # event-loop telemetry across every agent pass scheduler
    #: resume events popped
    sched_events: int = 0
    #: peak number of pending events in any pass's event heap
    sched_heap_peak: int = 0

    @property
    def sched_batches(self) -> int:
        """Event-loop iterations: the core steps one event per
        iteration, so this is ``sched_events``."""
        return self.sched_events

    @property
    def cache_evictions(self) -> int:
        """Sync-cache rows displaced over the run (a cache smaller than
        the working set shows here, not only as a low hit ratio)."""
        return sum(s.cache_evictions for s in self.stats)

    @property
    def cache_writebacks(self) -> int:
        """Evictions that had to write a dirty row back early."""
        return sum(s.cache_writebacks for s in self.stats)

    @property
    def computation_iterations(self) -> int:
        """Total computation iterations, counting the locally combined
        ones that synchronization skipping hid from the upper system."""
        return sum(s.local_iterations for s in self.stats)

    @property
    def middleware_ratio(self) -> float:
        """Fig. 14's metric: middleware time / whole-system time."""
        if self.total_ms <= 0:
            return 0.0
        return self.breakdown.get("middleware", 0.0) / self.total_ms

    def summary(self) -> str:
        return (f"{self.engine_name}/{self.algorithm_name}: "
                f"{self.iterations} iterations, "
                f"{self.total_ms:.1f} ms simulated "
                f"({self.skipped_iterations} syncs skipped)")


@dataclass
class _Run:
    """One run's state, shared by the transitions of ``run_stepwise``."""

    algorithm: AlgorithmTemplate
    result: RunResult            # the record the run returns, accumulating
    active: np.ndarray
    width: int
    use_async: bool              # the combined order (else the strict one)
    use_lazy: bool
    detector: Optional[SkipDetector]
    wall_start: float
    first: int = 0               # ``result.stats[k]`` is superstep first + k
    #: periodic checkpoints, and the state the run started from: an
    #: unrecoverable node fault rolls back to the newer of the two
    store: Optional[CheckpointStore] = None
    origin: Optional[Checkpoint] = None
    #: online Lemma-2 re-estimation (gray-failure response): an EWMA
    #: estimate of the per-node c_j from observed (d_j, T_j) pairs; when
    #: its optimal shares drift far enough from the current partition,
    #: the run repartitions without degrading anyone (None: off)
    coeff_est: Optional[np.ndarray] = None
    last_online_reb: int = -(10 ** 9)
    rebalanced_for: set = field(default_factory=set)
    #: vertices touched since the last checkpoint, for delta snapshots
    changed_accum: List[np.ndarray] = field(default_factory=list)
    #: what ``result.total_ms`` gained after set-up, in run order: a
    #: committed superstep's stats or a ``(kind, ms)`` charge
    book: List[object] = field(default_factory=list)
    #: the transport's ``_STAT_SUMS`` at the start (it outlives runs)
    transport_start: Tuple[float, ...] = (0, 0, 0.0)

    def charge(self, ms: float, kind: str) -> None:
        """Simulated time the driver spends outside any superstep: a
        ``"rollback"`` (the failed attempt plus the restore) or a
        ``"rebalance"`` (a repartition's exchange)."""
        self.book.append((kind, ms))
        self.result.total_ms += ms
        self.result.breakdown["engine"] += ms


#: the :class:`IterationStats` fields that hold simulated ms, and the
#: transport counts each superstep records a share of
_STAT_MS = ("compute_ms", "apply_ms", "sync_ms", "checkpoint_ms",
            "net_wasted_ms")
_STAT_SUMS = ("retransmits", "dup_drops", "net_wasted_ms")


def _check_books(run: _Run) -> None:
    """Balance a finished run's books in one pass, or raise
    :class:`EngineError` naming the field and the superstep: finite
    ms fields ``>= 0``; ``total_ms`` and ``rebalance_ms`` equal to
    their parts added in run order; without rollbacks, the stats'
    transport counts summing to the transport's; the breakdown summing
    to ``total_ms`` (docs/simulation.md, "Finite costs and the books").
    Not enforced: the transport sums of a run with rollbacks, whose
    failed attempts' resends reach no superstep's stats."""
    res = run.result
    total, rebalance, where = res.setup_ms, 0.0, "set-up"
    for entry in run.book:
        if isinstance(entry, IterationStats):
            where = f"superstep {entry.index}"
            for name in _STAT_MS:
                check_cost(f"{where} {name}", getattr(entry, name),
                           error=EngineError)
            total += entry.total_ms
        else:
            kind, ms = entry
            where = f"a {kind} after {where}"
            total += ms
            rebalance += ms if kind == "rebalance" else 0.0
    books = [("total_ms", res.total_ms, total, 0.0),
             ("rebalance_ms", res.rebalance_ms, rebalance, 0.0),
             ("breakdown", sum(res.breakdown.values()), total, 1e-12)]
    if res.rollbacks == 0:
        books += [(name, getattr(res, name), start + sum(
                      getattr(st, name) for st in res.stats), 1e-12)
                  for name, start in zip(_STAT_SUMS, run.transport_start)]
    for name, value, parts, rel in books:
        if not abs(value - parts) <= rel * abs(parts):  # NaN fails too
            raise EngineError(
                f"{name} is {value!r} after {where}, its parts {parts!r}")


class IterativeEngine:
    """Distributed iteration driver over a partitioned graph."""

    #: "bsp" (Gen -> Merge -> Apply) or "gas" (Merge -> Apply -> Gen).
    model = "bsp"
    name = "engine"

    #: The runtime environment this upper system's nodes run (§IV-B1):
    #: a :data:`~repro.cluster.HOST_RUNTIMES` key, ``"jvm"``/``"native"``.
    host_runtime = "native"

    #: Asynchronous engines force the combined-local-iteration path for
    #: every (monotone) run, independent of the skip toggle.
    force_async = False

    #: "full": every superstep materializes the whole local triplet view
    #: (GraphX/Spark behaviour — what makes synchronization caching pay
    #: off 2-3x there, Fig. 11(a)); "frontier": only edges of active
    #: vertices are gathered (PowerGraph behaviour).
    edge_scan = "frontier"

    def __init__(self, pgraph: PartitionedGraph, cluster: Cluster,
                 middleware: Optional[GXPlug] = None) -> None:
        if pgraph.num_partitions != cluster.num_nodes:
            raise EngineError(
                f"{pgraph.num_partitions} partitions for "
                f"{cluster.num_nodes} nodes"
            )
        if middleware is not None and middleware.cluster is not cluster:
            raise EngineError("middleware was built for a different cluster")
        self.cluster = cluster
        self.middleware = middleware
        self.graph = pgraph.graph
        #: wall-clock seconds by hot-path phase, reset at every run()
        self.wall_s: Dict[str, float] = dict.fromkeys(WALL_PHASES, 0.0)
        self._bind_partition(pgraph)

    def _bind_partition(self, pgraph: PartitionedGraph) -> None:
        """Adopt ``pgraph``: at construction, and again when rebalancing
        swaps in a repartitioned graph mid-run.

        What the engine reads of a partition besides its parts are
        constants of it — the arrays of its shared, read-only
        :class:`~repro.graph.partition.PartitionIndex`, built once per
        partition and not per job.
        """
        self.pgraph = pgraph
        index = pgraph.index
        self._sources = index.sources
        self._master_sets = index.is_master
        self._replica_count = index.replica_count
        self._stored_local = index.stored_local

    # -- configuration hooks (overridden by GraphX / PowerGraph) --------------------

    def _mirror_sync_cells(self, changed: np.ndarray, width: int) -> int:
        """Extra sync payload for replica/mirror propagation (GAS only)."""
        return 0

    def _scatter_cost_ms(self, node_id: int, changed_here: int) -> float:
        """Extra per-node cost of the scatter/activation step (GAS only)."""
        return 0.0

    # -- main loop ----------------------------------------------------------------------

    def run(self, algorithm: AlgorithmTemplate,
            max_iterations: Optional[int] = None, *,
            resume_from=None) -> RunResult:
        """Run ``algorithm`` to convergence (or the iteration cap)."""
        stepper = self.run_stepwise(algorithm, max_iterations,
                                    resume_from=resume_from)
        while True:
            try:
                next(stepper)
            except StopIteration as stop:
                return stop.value

    def run_stepwise(self, algorithm: AlgorithmTemplate,
                     max_iterations: Optional[int] = None, *,
                     resume_from=None):
        """Generator form of :meth:`run`: yields a :class:`StepEvent`
        after every superstep (and rollback) and returns the final
        :class:`RunResult` as the generator's return value.

        Driving the generator to exhaustion is exactly :meth:`run` —
        bit-identical values, stats and costs.  Suspending between
        yields lets the serving layer time-slice the daemon pool across
        several concurrent jobs at superstep granularity.

        ``resume_from`` — a :class:`~repro.fault.checkpoint.Checkpoint`
        (anything with ``iteration``/``values``/``active``): instead of
        ``algorithm.init_state``, the run is seeded from that snapshot
        and continues at the *absolute* iteration it captures.  Because
        engine state is fully determined by ``(values, active,
        iteration)``, a resumed run reproduces the tail of the original
        bit-for-bit; ``RunResult.iterations`` stays absolute while
        ``stats`` covers only the supersteps actually re-executed.

        A run is four transitions on one :class:`_Run` record: _start,
        then _commit or _roll_back per superstep, then _finish.
        """
        run = self._start(algorithm, resume_from)
        res, mw = run.result, self.middleware
        cap = max_iterations if max_iterations is not None \
            else algorithm.default_max_iterations
        while res.iterations < cap:
            faults = mw.arm_faults(res.iterations) if mw is not None else 0
            before = self._fault_counters() + self._net_counters()
            if mw is not None:
                mw.transport.step_wasted_ms = 0.0
            spent = dict(res.breakdown)
            try:
                if run.use_async:
                    step = self._run_superstep_combined(
                        res.iterations, algorithm, res.values, run.active,
                        run.width, res.breakdown)
                else:
                    step = self._run_iteration(
                        res.iterations, algorithm, res.values, run.active,
                        run.width, run.detector, run.use_lazy,
                        res.breakdown)
            except (AcceleratorsExhausted, NodeUnreachable) as failure:
                # the failed attempt reaches the breakdown once, as the
                # rollback's charge, not also as its partial phases
                res.breakdown.update(spent)
                event = self._roll_back(run, failure)
            else:
                event = self._commit(run, step, faults, before)
            yield event
            if event.converged:
                break
        return self._finish(run)

    def _start(self, algorithm: AlgorithmTemplate, resume_from) -> _Run:
        """The first transition: seed the state (from
        ``algorithm.init_state`` or ``resume_from``), connect the
        middleware, and set up the checkpoint store and rollback origin."""
        wall_start = perf_counter()
        self.wall_s = dict.fromkeys(WALL_PHASES, 0.0)
        state = algorithm.init_state(self.graph)
        mw = self.middleware
        use_skip = bool(mw and mw.config.sync_skip)
        # monotone algorithms get the combined-local-iteration form of
        # synchronization skipping; others keep the strict detector.
        # An asynchronous engine forces the combined path outright.
        use_async = (use_skip or self.force_async) and algorithm.monotone
        res = RunResult(
            values=state.values, iterations=0, total_ms=0.0, setup_ms=0.0,
            converged=False, stats=[],
            breakdown={"middleware": 0.0, "device": 0.0, "engine": 0.0,
                       "setup": 0.0},
            engine_name=self.name, algorithm_name=algorithm.name)
        run = _Run(
            algorithm, res, state.active,
            width=state.values.shape[1] if state.values.ndim > 1 else 1,
            use_async=use_async, use_lazy=bool(mw and mw.config.lazy_upload),
            detector=(SkipDetector(self.pgraph)
                      if use_skip and not use_async else None),
            wall_start=wall_start)
        if mw is not None and not mw.connected:
            # setup (daemon spawn + device init) is a one-time deployment
            # cost; it gets its own bucket so the Fig. 14 ratio reflects
            # the iterative processing the paper measures on
            # long-running jobs.
            res.setup_ms = res.total_ms = res.breakdown["setup"] = \
                mw.connect_all()
        if resume_from is not None:
            seeded = np.array(resume_from.values, copy=True)
            if seeded.shape != res.values.shape:
                # a checkpoint or warm start from a different graph
                # version (or algorithm arity) can never be resumed —
                # better to refuse than to compute garbage
                raise EngineError(
                    f"resume_from values shape {seeded.shape} does not "
                    f"match the graph's state shape {res.values.shape}")
            res.values = seeded
            run.active = np.array(resume_from.active, copy=True)
            res.iterations = run.first = int(resume_from.iteration)
        if mw is not None:
            run.transport_start = tuple(getattr(mw.transport, name)
                                        for name in _STAT_SUMS)
            if mw.config.checkpoint_interval > 0:
                run.store = CheckpointStore(mw.config.checkpoint_interval)
                if resume_from is not None:
                    # the resume point is already durable: install it as
                    # the free full base so a mid-run rollback can reach
                    # it before the first own checkpoint falls due
                    run.store.seed(run.first, res.values, run.active)
            if mw.config.degrade_to_host:
                run.origin = Checkpoint(run.first, res.values.copy(),
                                        run.active.copy(), cost_ms=0.0)
            if any(a.degraded for a in mw.agents.values()):
                run.use_async = False  # degraded nodes force the strict path
            if mw.config.straggler.reestimate:
                run.coeff_est = np.asarray(
                    cluster_coefficients(self.cluster.nodes),
                    dtype=np.float64)
        # external resume/peek handle for the serving layer (journal,
        # checkpoint-resume retries); None when checkpointing is off
        self.checkpoint_store = run.store
        return run

    def _roll_back(self, run: _Run, failure) -> StepEvent:
        """The transition out of a failed superstep: write the node off,
        restore the newest checkpoint (else the state the run started
        from), book the discarded supersteps as waste and, with
        ``rebalance_on_degrade``, repartition around the degraded nodes."""
        mw, res = self.middleware, run.result
        ms0 = res.total_ms
        if isinstance(failure, NodeUnreachable):
            if not mw.config.degrade_to_host:
                raise failure
            # the watchdog's partition verdict: write the node's
            # accelerators off and fall back to its host path
            mw.agent_for(failure.node_id).degraded = True
        res.rollbacks += 1
        if res.rollbacks > max(MAX_ROLLBACKS, self.cluster.num_nodes):
            raise EngineError(
                f"{res.rollbacks} rollbacks without progress") from failure
        failed_ms = getattr(failure, "elapsed_ms", 0.0)
        if not failed_ms and failure.__cause__ is not None:
            failed_ms = getattr(failure.__cause__, "elapsed_ms", 0.0)
        if run.store is not None and run.store.latest is not None:
            ckpt = run.store.restore()  # fresh arrays, restore cost
        else:  # degrade_to_host, which every rollback needs, set origin
            ckpt = replace(run.origin, values=run.origin.values.copy(),
                           active=run.origin.active.copy())
        for agent in mw.agents.values():
            agent.flush_cache()  # cached values from the discarded future
        res.values, run.active = ckpt.values, ckpt.active
        # ckpt.iteration is absolute; ``stats`` starts at ``first``
        discarded = res.stats[ckpt.iteration - run.first:]
        res.wasted_ms += (sum(s.total_ms for s in discarded)
                          + failed_ms + ckpt.cost_ms)
        del res.stats[ckpt.iteration - run.first:]
        run.charge(failed_ms + ckpt.cost_ms, "rollback")
        res.iterations = ckpt.iteration
        run.use_async = False  # the degraded node computes host-side
        run.changed_accum = []  # the store forces a full snapshot next
        if (mw.config.rebalance_on_degrade
                and set(mw.degraded_nodes()) - run.rebalanced_for):
            # Lemma 2 holds for whatever coefficients the cluster
            # currently has, so after a node falls back to its host path
            # the optimal shares shift away from it (§III-C): recompute
            # them with the degraded node's accelerators written off.
            self._repartition(run, rebalanced_shares(self.cluster.nodes,
                                                     mw.degraded_nodes()))
            run.rebalanced_for |= set(mw.degraded_nodes())
            res.rebalance_events += 1
        return StepEvent("rollback", res.iterations, res.total_ms - ms0)

    def _commit(self, run: _Run, step, faults: int, before) -> StepEvent:
        """The transition out of a completed superstep: record its fault
        and transport counter deltas, save the checkpoint that falls
        due, fold it into the online Lemma-2 estimate and test
        convergence."""
        mw, res = self.middleware, run.result
        ms0 = res.total_ms
        st, res.values, run.active, changed_ids = step
        after = self._fault_counters() + self._net_counters()
        st.faults_injected = faults
        st.retries, st.recoveries, st.retransmits, st.dup_drops = (
            a - b for a, b in zip(after, before))
        res.stats.append(st)
        res.iterations += 1
        if changed_ids.size:
            run.changed_accum.append(changed_ids)
        checkpointed = run.store is not None and run.store.due(res.iterations)
        if checkpointed:
            st.checkpoint_ms += run.store.save(
                res.iterations, res.values, run.active,
                changed=_concat_ids(run.changed_accum))
            # the driver's time, as a rollback's restore is
            res.breakdown["engine"] += st.checkpoint_ms
            run.changed_accum = []
        run.book.append(st)
        res.total_ms += st.total_ms
        if (run.coeff_est is not None and st.active_edges > 0
                and st.retries == 0 and st.recoveries == 0
                and not mw.degraded_nodes()
                and (mw.straggler.flagged or mw.straggler.flagged_links)):
            # fold this superstep's (d_j, T_j) pairs into the estimate,
            # but not a contaminated superstep (retries, recoveries), a
            # degraded cluster (it has its own rebalance path) or one
            # with no flagged straggler: benign coefficient noise must
            # never repartition a healthy, fault-free run.
            run.coeff_est, folded, shares, divergence = \
                self._reestimate_shares(st, run.coeff_est, run.width)
            res.coeff_updates += folded
            if (divergence > SHARE_DIVERGENCE
                    and res.iterations - run.last_online_reb
                    >= REBALANCE_COOLDOWN):
                # Lemma 2 says the optimum moved: repartition to the
                # estimated shares (shifting load *off* the straggling
                # node) without writing anyone off
                self._repartition(run, shares)
                run.last_online_reb = res.iterations
                res.online_rebalances += 1
        if mw is not None:
            # read after the rebalance: its collective's waste belongs
            # to this superstep, and the next attempt zeroes the count
            st.net_wasted_ms = mw.transport.step_wasted_ms
        res.converged = bool(run.algorithm.is_converged(
            st.changed_vertices, res.iterations))
        return StepEvent("superstep", res.iterations, res.total_ms - ms0,
                         res.converged, checkpointed=checkpointed)

    def _finish(self, run: _Run) -> RunResult:
        """The last transition: the totals only known at the end of the
        run (the middleware's, copied from its fault report, plus the
        scheduler's and the wall clock's)."""
        mw, res = self.middleware, run.result
        res.skipped_iterations = (
            sum(1 for s in res.stats if s.skipped)
            + sum(s.local_iterations - 1 for s in res.stats))
        if mw is not None:
            report = fault_report(mw, res)
            for name in _shared_fields(res):
                setattr(res, name, getattr(report, name))
            for name, total in mw.scheduler_counters().items():
                setattr(res, name, total)  # the two ``sched_*`` fields
        _check_books(run)
        res.wall_total_s = perf_counter() - run.wall_start
        res.wall_s = dict(self.wall_s)
        return res

    def _repartition(self, run: _Run, shares) -> None:
        """Move ``run`` to new Lemma-2 ``shares`` (both rebalance
        triggers) and charge the exchange; the strict detector reads the
        partition, so it is rebuilt on the new one."""
        ms = self._repartition_to(shares, run.width)
        run.result.rebalance_ms += ms
        run.charge(ms, "rebalance")
        if run.detector is not None:
            run.detector = SkipDetector(self.pgraph)

    # -- fault tolerance ---------------------------------------------------------------

    def _fault_counters(self) -> Tuple[int, int]:
        """(retries, recoveries) summed across agents, for per-superstep
        deltas in the iteration stats."""
        mw = self.middleware
        if mw is None:
            return (0, 0)
        return (sum(a.retries for a in mw.agents.values()),
                sum(a.recoveries for a in mw.agents.values()))

    def _network(self):
        """Where each collective runs: the middleware's resilient
        transport, else (host-only engines) the cluster's topology."""
        mw = self.middleware
        return mw.transport if mw is not None else self.cluster.topology

    def _net_counters(self) -> Tuple[int, int]:
        """(retransmits, dup_drops) transport totals, for per-superstep
        deltas in the iteration stats."""
        mw = self.middleware
        if mw is None:
            return (0, 0)
        return (mw.transport.retransmits, mw.transport.dup_drops)

    def _reestimate_shares(self, st: IterationStats, coeff_est: np.ndarray,
                           width: int):
        """Fold one superstep's observed ``(d_j, T_j)`` pairs into the
        EWMA coefficient estimate.

        Returns ``(coeff_est, folded, shares, divergence)``: the new
        estimate, how many observations it took in, the Lemma-2 optimal
        shares under it, and their total-variation distance from the
        shares the current partition realises.
        """
        mw = self.middleware
        num_nodes = self.cluster.num_nodes
        obs = {part.node_id: (e, t) for part, t, e in
               zip(self.pgraph.parts, st.node_compute_ms, st.node_entities)}
        coeff_est = estimate_coefficients(obs, coeff_est)
        folded = sum(1 for e, t in obs.values() if e > 0 and t > 0)
        topology = self.cluster.topology
        if topology.uplinks_differ:
            # fold each node's wire slope, inflated by the detector's
            # per-link EWMA for flagged uplinks, so a slow cross-rack
            # link shifts the optimum exactly the way a slow daemon
            # does.  The bytes-per-entity conversion uses this
            # superstep's *observed* sync payload, so locality / lazy
            # uploading / combined iterations keep the wire slope honest.
            bytes_per_entity = (st.uploads * width * BYTES_PER_CELL
                                / max(st.active_edges, 1))
            link_net = network_coefficients(topology, bytes_per_entity)
            sdet = mw.straggler
            inflations = np.array(
                [sdet.link_inflation(j) if sdet.is_slow_link(j) else 1.0
                 for j in range(num_nodes)], dtype=np.float64)
            shares = balancing_factors(link_adjusted_coefficients(
                coeff_est, link_net, inflations))
        else:
            # uniform uplinks add the same slope to every node: no link
            # to shift load off, so the shares are the compute ones
            shares = balancing_factors(coeff_est)
        sizes = np.zeros(num_nodes)
        for part in self.pgraph.parts:
            sizes[part.node_id] = part.src.size
        divergence = 0.0
        if sizes.sum() > 0:
            divergence = 0.5 * float(
                np.abs(shares - sizes / sizes.sum()).sum())
        return coeff_est, folded, shares, divergence

    def _repartition_to(self, shares, width: int) -> float:
        """Repartition the graph to new Lemma-2 ``shares`` mid-run.

        Shared by degradation rebalancing and online re-estimation:
        repartitions with the run's own strategy, rebinds the engine's
        partition state, flushes agent caches (their rows describe the
        old layout) and returns the simulated cost of shipping the
        masters that moved.
        """
        mw = self.middleware
        old_master_of = self.pgraph.master_of
        pgraph = partition(self.graph, self.cluster.num_nodes,
                           self.pgraph.strategy, shares=shares)
        changed = pgraph.master_of != old_master_of
        moved = int(np.count_nonzero(changed))
        # price the migration over the links the rows actually cross:
        # each moved master uploads at its *new* node (on one uniform
        # rack the weights cost the same bits as none)
        counts = np.bincount(pgraph.master_of[changed],
                             minlength=self.cluster.num_nodes)
        moved_by_node = [float(c) * width * BYTES_PER_CELL for c in counts]
        self._bind_partition(pgraph)
        for agent in mw.agents.values():
            agent.flush_cache()
        # the moved masters' rows cross the network as one collective
        return self.cluster.repartition_cost_ms(
            moved * width * BYTES_PER_CELL, network=self._network(),
            moved_by_node=moved_by_node)

    def _node_accelerated(self, node_id: int) -> bool:
        """Does this node still compute through its agent's accelerators?"""
        mw = self.middleware
        return mw is not None and not mw.agent_for(node_id).degraded

    # -- the phases: every rule of a superstep, written once -------------------------

    def _select_edges(self, part, active: np.ndarray,
                      force_frontier: bool = False):
        """The edges a node processes this round, per the scan policy.

        A full scan still requires at least one active local source —
        a node whose partition is entirely quiescent does no work.
        Event-message algorithms force frontier scans everywhere.
        """
        wall0 = perf_counter()
        sel = active[part.src]
        if (self.edge_scan == "full" and not force_frontier
                and sel.any()):
            edges = part.src, part.dst, part.weights
        else:
            edges = part.src[sel], part.dst[sel], part.weights[sel]
        self.wall_s["gen"] += perf_counter() - wall0
        return edges

    def _edge_phase(self, node_id: int, src: np.ndarray, dst: np.ndarray,
                    w: np.ndarray, values: np.ndarray,
                    algorithm: AlgorithmTemplate, st: IterationStats):
        """One node's pass (MSGGen + MSGMerge) over its selected
        triplets, on its agent — or on its host runtime when there is
        no middleware or the node degraded to its CPU baseline after
        exhausting its accelerators.

        Tallies the pass's cache counters into ``st`` and returns
        ``(partial, elapsed_ms, middleware_ms)``; ``middleware_ms`` is
        the transfer + init share of an agent pass (the rest is device
        time) and ``None`` for a host pass.
        """
        wall0 = perf_counter()
        if self._node_accelerated(node_id):
            res = self.middleware.agent_for(node_id).edge_pass(
                src, dst, w, values, algorithm)
            st.cache_hits += res.cache_hits
            st.cache_misses += res.cache_misses
            st.cache_evictions += res.cache_evictions
            st.cache_writebacks += res.cache_writebacks
            busy = (res.breakdown.get("middleware.download", 0.0)
                    + res.breakdown.get("middleware.upload", 0.0)
                    + res.breakdown.get("middleware.init", 0.0))
            out = res.partial, res.elapsed_ms, min(busy, res.elapsed_ms)
        else:
            partial, ms = self._host_edge_pass(node_id, src, dst, w, values,
                                               algorithm)
            out = partial, ms, None
        self.wall_s["gen"] += perf_counter() - wall0
        return out

    def _combine(self, algorithm: AlgorithmTemplate,
                 parts: List[MessageSet]) -> MessageSet:
        """Global merge of per-node (or per-pass) partial message sets."""
        wall0 = perf_counter()
        combined = algorithm.combine_many(parts)
        self.wall_s["merge"] += perf_counter() - wall0
        return combined

    def _addressed_to(self, node_id: int, messages: MessageSet
                      ) -> MessageSet:
        """The messages whose destination this node is the master of."""
        if messages.size == 0:
            return messages
        return _take(messages, self._master_sets[node_id][messages.ids])

    def _apply_phase(self, node_id: int, messages: MessageSet,
                     values: np.ndarray, algorithm: AlgorithmTemplate
                     ) -> Tuple[np.ndarray, float]:
        """MSGApply of ``messages`` at one node, restricted to its
        masters and written into ``values`` (the superstep's working
        copy); the updated masters are written through to the agent's
        cache, resident and dirty until the next synchronization.

        Returns ``(changed_ids, cost_ms)``.
        """
        wall0 = perf_counter()
        agent = (self.middleware.agent_for(node_id)
                 if self._node_accelerated(node_id) else None)
        if agent is not None:
            cand, changed, cost = agent.request_apply(values, messages,
                                                      algorithm)
        else:
            cand, changed = algorithm.msg_apply(values, messages)
            cost = self._host_apply_ms(node_id, messages.size)
        if changed.size:
            changed = changed[self._master_sets[node_id][changed]]
            values[changed] = np.take(cand, changed, axis=0)
        wall1 = perf_counter()
        self.wall_s["apply"] += wall1 - wall0
        if agent is not None:
            agent.note_master_updates(changed)
            self.wall_s["cache"] += perf_counter() - wall1
        return changed, cost

    def _synchronize(self, st: IterationStats, collective):
        """Run the sync ``collective`` (a thunk pricing it) for the
        superstep ``st`` describes.  When the transport gives a node
        up mid-collective, the whole superstep is discarded with the
        failed sync."""
        wall0 = perf_counter()
        try:
            return collective()
        except NodeUnreachable as verdict:
            verdict.elapsed_ms = (st.compute_ms + st.apply_ms
                                  + verdict.wasted_ms)
            raise
        finally:
            self.wall_s["sync"] += perf_counter() - wall0

    # -- the strict order: pass, combine, apply, sync --------------------------------

    def _run_iteration(self, index: int, algorithm: AlgorithmTemplate,
                       values: np.ndarray, active: np.ndarray, width: int,
                       detector: Optional[SkipDetector], use_lazy: bool,
                       breakdown: Dict[str, float]):
        """One superstep in the strict order.  Returns ``(stats,
        values, active, changed_ids)``."""
        mw = self.middleware
        st = IterationStats(index)

        # per-node edge computation (parallel: pay the max)
        partials: Dict[int, MessageSet] = {}
        crit_ms, crit_mw_ms = -1.0, None
        force_frontier = algorithm.requires_frontier_scan
        for part in self.pgraph.parts:
            src, dst, w = self._select_edges(part, active, force_frontier)
            st.active_edges += int(src.size)
            st.node_entities.append(int(src.size))
            partials[part.node_id], ms, mw_ms = self._edge_phase(
                part.node_id, src, dst, w, values, algorithm, st)
            st.node_compute_ms.append(ms)
            if ms > crit_ms:
                # the critical node is the first slowest pass; its
                # split is the superstep's
                crit_ms, crit_mw_ms = ms, mw_ms
        st.compute_ms = max(st.node_compute_ms, default=0.0)
        if crit_mw_ms is None:
            # host compute: no middleware, or the critical node degraded
            breakdown["engine"] += st.compute_ms
        else:
            breakdown["middleware"] += max(crit_mw_ms, 0.0)
            breakdown["device"] += max(crit_ms - crit_mw_ms, 0.0)

        combined = self._combine(
            algorithm, [partials[node_id] for node_id in sorted(partials)])

        # apply at masters (parallel).  Every node applies, even an
        # empty message set: the request still pays device init.
        values = values.copy()
        node_apply_ms: List[float] = []
        changed_by_node: Dict[int, np.ndarray] = {}
        for part in self.pgraph.parts:
            changed, cost = self._apply_phase(
                part.node_id, self._addressed_to(part.node_id, combined),
                values, algorithm)
            changed_by_node[part.node_id] = changed
            if mw is not None:
                # the GAS scatter step is charged in this order only
                cost += self._scatter_cost_ms(part.node_id, changed.size)
            node_apply_ms.append(cost)
        st.apply_ms = max(node_apply_ms, default=0.0)
        if mw is not None:
            # apply is dominated by transfer bookkeeping; split half/half
            breakdown["middleware"] += st.apply_ms * 0.5
            breakdown["device"] += st.apply_ms * 0.5
        else:
            breakdown["engine"] += st.apply_ms

        all_changed = _concat_ids(list(changed_by_node.values()))
        st.changed_vertices = int(all_changed.size)
        active = algorithm.next_active(self.graph, all_changed,
                                       self.graph.num_vertices)

        # synchronization (or skip), priced from the query lists
        if detector is not None and detector.can_skip(partials,
                                                      changed_by_node):
            st.skipped = True
        else:
            st.sync_ms, st.uploads, needed_by_node = self._synchronize(
                st, lambda: self._sync_cost(changed_by_node, active, width,
                                            use_lazy))
            breakdown["engine"] += st.sync_ms
            if mw is not None:
                self._settle_caches(changed_by_node, needed_by_node)
        return st, values, active, all_changed

    # -- the combined order (synchronization skipping, §III-B3) ----------------------

    def _run_superstep_combined(self, index: int,
                                algorithm: AlgorithmTemplate,
                                values: np.ndarray, active: np.ndarray,
                                width: int, breakdown: Dict[str, float]):
        """One superstep where every node iterates locally to quiescence.

        The §III-B3 mechanism for monotone algorithms: a node applies the
        messages addressed to its own masters immediately and keeps
        iterating ("multiple computation iterations can be equivalent to
        a logically combined iteration"); messages addressed to foreign
        masters are buffered and delivered at one global synchronization
        when all nodes are locally quiescent.  Runs inside the agents:
        a degraded node sends the run back to the strict order.
        Returns ``(stats, values, active, changed_ids)``.
        """
        n = self.graph.num_vertices
        st = IterationStats(index)
        values = values.copy()
        depth_cap = max(1, self.middleware.config.skip_max_local_iterations)
        node_apply_ms: List[float] = []
        crit_ms, crit_mw_ms, crit_dev_ms = -1.0, 0.0, 0.0
        foreign_parts: List[MessageSet] = []
        foreign_cells = [0] * self.cluster.num_nodes
        local_changed_parts: List[np.ndarray] = []
        pending_parts: List[np.ndarray] = []

        for part in self.pgraph.parts:
            node = part.node_id
            frontier = active
            t_compute = t_apply = mw_ms = dev_ms = 0.0
            entities = sub = 0
            local_changed: List[np.ndarray] = []
            while True:
                # combined local iterations always run frontier-driven:
                # the upper system (and its full triplet view) is not
                # involved between skipped syncs — nodes iterate from
                # agent-local data (§III-B3)
                src, dst, w = self._select_edges(part, frontier,
                                                 force_frontier=True)
                if src.size == 0:
                    break
                if sub == 0:
                    st.active_edges += int(src.size)
                entities += int(src.size)
                partial, ms, pass_mw_ms = self._edge_phase(
                    node, src, dst, w, values, algorithm, st)
                t_compute += ms
                mw_ms += pass_mw_ms
                dev_ms += ms - pass_mw_ms
                sub += 1
                if partial.size == 0:
                    break
                here = self._master_sets[node][partial.ids]
                foreign = _take(partial, ~here)
                if foreign.size:
                    foreign_parts.append(foreign)
                    foreign_cells[node] += foreign.size
                local = _take(partial, here)
                if local.size == 0:
                    break
                changed, cost = self._apply_phase(node, local, values,
                                                  algorithm)
                t_apply += cost
                if changed.size == 0:
                    break
                local_changed.append(changed)
                if sub >= depth_cap:
                    # depth bound reached: hand the unfinished frontier to
                    # the next superstep instead of fast-forwarding on
                    pending_parts.append(changed)
                    break
                frontier = np.zeros(n, dtype=bool)
                frontier[changed] = True
            st.node_compute_ms.append(t_compute)
            st.node_entities.append(entities)
            node_apply_ms.append(t_apply)
            st.local_iterations = max(st.local_iterations, sub)
            if t_compute > crit_ms:
                # the critical node is the first slowest pass (summed
                # over its local iterations); its split is the superstep's
                crit_ms, crit_mw_ms, crit_dev_ms = t_compute, mw_ms, dev_ms
            if local_changed:
                local_changed_parts.append(np.concatenate(local_changed))

        st.compute_ms = max(st.node_compute_ms, default=0.0)
        st.apply_ms = max(node_apply_ms, default=0.0)
        breakdown["middleware"] += max(crit_mw_ms, 0.0) + st.apply_ms * 0.5
        breakdown["device"] += max(crit_dev_ms, 0.0) + st.apply_ms * 0.5

        # global sync: deliver the buffered foreign messages, priced
        # from the buffer's payload with apply-at-sync folded in
        sync_changed: List[np.ndarray] = []
        foreign_buffer = self._combine(algorithm, foreign_parts)
        st.skipped = foreign_buffer.size == 0
        if not st.skipped:
            st.uploads = foreign_buffer.size
            payload_bytes = (st.uploads * width * BYTES_PER_CELL
                             + self._mirror_sync_cells(
                                 foreign_buffer.ids, width)
                             * BYTES_PER_CELL)
            st.sync_ms = self._synchronize(
                st, lambda: self._network().sync_ms(
                    self.cluster.num_nodes, payload_bytes,
                    bytes_by_node=[c * width * BYTES_PER_CELL
                                   for c in foreign_cells]))
            st.sync_ms += max(node.runtime.sync_fixed_ms
                              for node in self.cluster.nodes)
            apply_sync: List[float] = []
            changed_by_node: Dict[int, np.ndarray] = {}
            for part in self.pgraph.parts:
                merged_here = self._addressed_to(part.node_id,
                                                 foreign_buffer)
                if merged_here.size == 0:
                    continue  # nothing delivered here: no request made
                changed, cost = self._apply_phase(
                    part.node_id, merged_here, values, algorithm)
                apply_sync.append(cost)
                changed_by_node[part.node_id] = changed
                if changed.size:
                    sync_changed.append(changed)
            if apply_sync:
                st.sync_ms += max(apply_sync)
            breakdown["engine"] += st.sync_ms
            self._settle_caches(changed_by_node, {})

        # frontier: vertices changed by the sync, frontiers left
        # unfinished by the depth bound, plus local changes whose
        # out-edges are stored on other nodes (vertex-cut replicas)
        frontier_parts = sync_changed + pending_parts
        for changed in local_changed_parts:
            cross = changed[~self._stored_local[changed]]
            if cross.size:
                frontier_parts.append(cross)
        frontier = _concat_ids(frontier_parts)
        st.changed_vertices = int(frontier.size)
        active = algorithm.next_active(self.graph, frontier, n)
        if frontier.size == 0:
            active = np.zeros(n, dtype=bool)
        # every vertex whose value actually moved this superstep (the
        # frontier above is a subset) — what a delta checkpoint must cover
        return (st, values, active,
                _concat_ids(local_changed_parts + sync_changed))

    # -- host-mode cost hooks --------------------------------------------------------

    def _host_edge_pass(self, node_id: int, src: np.ndarray,
                        dst: np.ndarray, w: np.ndarray,
                        values: np.ndarray,
                        algorithm: AlgorithmTemplate
                        ) -> Tuple[MessageSet, float]:
        runtime = self.cluster.nodes[node_id].runtime
        if src.size == 0:
            return algorithm.empty_messages(), 0.0
        msgs = algorithm.msg_gen(src, dst, w, values)
        partial = algorithm.msg_merge(dst, msgs)
        cost = runtime.compute.kernel_ms(src.size)
        cost += runtime.apply_ms_per_entity * partial.size
        return partial, cost

    def _host_apply_ms(self, node_id: int, num_messages: int) -> float:
        runtime = self.cluster.nodes[node_id].runtime
        if num_messages == 0:
            return 0.0
        return runtime.compute.kernel_ms(num_messages)

    # -- synchronization ----------------------------------------------------------------

    def _sync_cost(self, changed_by_node: Dict[int, np.ndarray],
                   next_active: np.ndarray, width: int,
                   use_lazy: bool
                   ) -> Tuple[float, int, Dict[int, np.ndarray]]:
        """Network + upload cost of the inter-iteration synchronization.

        Returns ``(sync_ms, uploads, needed_by_node)``; the query lists
        are reused for Algorithm 3's delivery step (cache refresh).
        """
        num_nodes = self.cluster.num_nodes
        network = self._network()
        n = self.graph.num_vertices

        # which vertices does each node need next iteration? (query
        # lists: the active ones among the sources of its edges)
        needed_by_node: Dict[int, np.ndarray] = {}
        if use_lazy:
            queries = np.zeros(n, dtype=np.int64)  # nodes asking for v
            for part in self.pgraph.parts:
                sources = self._sources[part.node_id]
                needed = sources[next_active[sources]]
                needed_by_node[part.node_id] = needed
                queries[needed] += 1

        upload_total = 0
        slowest_upload = 0.0
        query_bytes = 0
        upload_bytes = [0.0] * num_nodes
        for part in self.pgraph.parts:
            changed = changed_by_node.get(part.node_id,
                                          np.empty(0, dtype=np.int64))
            if use_lazy:
                # upload the changed vertices some *other* node queried
                needed = needed_by_node[part.node_id]
                own_query = np.zeros(n, dtype=bool)
                own_query[needed] = True
                to_upload = np.zeros(n, dtype=bool)
                to_upload[changed[queries[changed]
                                  > own_query[changed]]] = True
                count = int(np.count_nonzero(to_upload))
                query_bytes += needed.size * BYTES_PER_ID
            else:
                count = int(changed.size)
            upload_total += count
            upload_bytes[part.node_id] = count * width * BYTES_PER_CELL
            runtime = self.cluster.nodes[part.node_id].runtime
            slowest_upload = max(
                slowest_upload, runtime.upload_ms_per_entity * count)

        payload_cells = upload_total * width
        payload_cells += self._mirror_sync_cells(
            _concat_ids(list(changed_by_node.values())), width)
        payload_bytes = payload_cells * BYTES_PER_CELL

        sync_ms = network.sync_ms(num_nodes, payload_bytes,
                                  bytes_by_node=upload_bytes)
        if use_lazy:
            sync_ms += network.broadcast_ms(num_nodes, query_bytes)
        sync_ms += max(node.runtime.sync_fixed_ms
                       for node in self.cluster.nodes)
        sync_ms += slowest_upload
        return sync_ms, upload_total, needed_by_node

    def _settle_caches(self, changed_by_node: Dict[int, np.ndarray],
                       needed_by_node: Dict[int, np.ndarray]) -> None:
        """Post-sync cache maintenance on every agent.

        Under lazy uploading (Algorithm 3) the global data queue delivers
        each agent the queried vertices' fresh values, so foreign changes
        the node asked for stay resident (their delivery was already
        charged as sync payload); foreign changes it did not query are
        invalidated and will be re-downloaded on demand.  With no query
        lists — an eager sync, or the combined order, whose sync ships
        buffered messages rather than queried values — every foreign
        change is invalidated.
        """
        wall0 = perf_counter()
        mw = self.middleware
        for part in self.pgraph.parts:
            agent = mw.agent_for(part.node_id)
            if agent.degraded:
                continue
            agent.settle_dirty()
            stale = _concat_ids([ids for node, ids in changed_by_node.items()
                                 if node != part.node_id])
            if stale.size == 0:
                continue
            needed = needed_by_node.get(part.node_id)
            if needed is not None and needed.size:
                # query lists are ascending and duplicate-free, so both
                # batches reach the cache that way too
                stale_mask = np.zeros(self.graph.num_vertices, dtype=bool)
                stale_mask[stale] = True
                delivered = needed[stale_mask[needed]]
                agent.refresh_cache(delivered)
                stale_mask[delivered] = False
                remaining = np.flatnonzero(stale_mask)
            else:
                remaining = stale
            if remaining.size:
                agent.invalidate_cache(remaining)
        self.wall_s["cache"] += perf_counter() - wall0
