"""The iterative distributed engine core shared by GraphX and PowerGraph.

One :class:`IterativeEngine` drives the BSP/GAS iteration over a
partitioned graph on a simulated cluster, either computing on the nodes'
host runtimes ("GraphX"/"PowerGraph" bars of Fig. 8) or delegating the
per-node computation to plugged GX-Plug agents ("CPU+"/"GPU+" bars).

Per iteration:

1. **Edge computation** — every node processes its active local triplets
   (MSGGen + block-local MSGMerge).  Nodes run in parallel, so the
   iteration pays the slowest node (the workload-balancing objective of
   §III-C).
2. **Global merge** — partial message sets combine associatively; each
   master node receives the messages addressed to its vertices.
3. **Apply** — every node folds its masters' messages into the vertex
   table (MSGApply), again in parallel.
4. **Synchronization** — unless synchronization skipping (§III-B3) proves
   no inter-node traffic is needed, the engine pays the network collective
   plus the data uploads (trimmed by lazy uploading, §III-B2b) and
   invalidates agent cache entries made stale by foreign updates.

Simulated results are *real*: the engine's values equal the algorithm's
single-machine reference bit-for-bit, which the integration tests assert
for every engine/config combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..core.balance import (
    balancing_factors,
    cluster_coefficients,
    estimate_coefficients,
    link_adjusted_coefficients,
    network_coefficients,
    rebalanced_shares,
)
from ..core.config import MiddlewareConfig
from ..core.middleware import GXPlug
from ..core.sync_skip import SkipDetector
from ..core.template import AlgorithmTemplate, MessageSet
from ..errors import AcceleratorsExhausted, EngineError, NodeUnreachable
from ..fault.checkpoint import CheckpointStore
from ..graph.partition import PartitionedGraph, partition

#: simulated bytes per float64 payload cell crossing the network
BYTES_PER_CELL = 8
#: simulated bytes per vertex id in the global query queue broadcast
BYTES_PER_ID = 8

#: Rollback budget floor: every rollback permanently degrades at least one
#: node to its host path, so a run can need at most one per node (the
#: effective limit is ``max(MAX_ROLLBACKS, num_nodes)``).
MAX_ROLLBACKS = 8

#: The hot-path phases whose wall-clock time the engine accounts
#: (``time.perf_counter`` deltas; see ``repro.bench.hotpath``).
WALL_PHASES = ("gen", "merge", "apply", "sync", "cache")


@dataclass
class IterationStats:
    """Everything recorded about one engine superstep."""

    index: int
    active_edges: int
    compute_ms: float            # slowest node's edge pass
    apply_ms: float              # slowest node's apply
    sync_ms: float               # global synchronization (0 when skipped)
    skipped: bool
    changed_vertices: int
    uploads: int                 # vertex values shipped at sync time
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
    dup_drops: int = 0           # duplicate deliveries deduped by seqno
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
    #: serving layer uses to externalize a fresh durable resume point
    checkpointed: bool = False


@dataclass
class RunResult:
    """Outcome of one engine run."""

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
    #: run totals from the resilient transport (0 without it)
    retransmits: int = 0
    dup_drops: int = 0
    net_wasted_ms: float = 0.0
    #: delta-snapshot cost hidden inside compute windows by speculative
    #: checkpointing (0 unless ``speculative_checkpoint`` is on)
    checkpoint_hidden_ms: float = 0.0
    # gray-failure tolerance (repro.fault.straggler)
    #: soft straggler verdicts issued by the detector during the run
    straggler_verdicts: int = 0
    #: speculative block re-executions where the backup finished first
    speculative_wins: int = 0
    #: speculative re-executions whose backup work was discarded
    speculative_losses: int = 0
    #: simulated device ms burned on losing copies (both directions)
    speculative_wasted_ms: float = 0.0
    #: busy leases that outlived their cost-model phase budget
    budget_overruns: int = 0
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
    #: resume events popped (identical under both scheduler cores)
    sched_events: int = 0
    #: cohort batches the event loop executed (== events under the
    #: per-event oracle; smaller on the batched core)
    sched_batches: int = 0
    #: largest same-timestamp cohort executed in one loop iteration
    sched_max_batch: int = 0
    #: peak number of pending events in any pass's event heap
    sched_heap_peak: int = 0

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


class IterativeEngine:
    """Distributed iteration driver over a partitioned graph."""

    #: "bsp" (Gen -> Merge -> Apply) or "gas" (Merge -> Apply -> Gen).
    model = "bsp"
    name = "engine"

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

    @property
    def config(self) -> Optional[MiddlewareConfig]:
        return self.middleware.config if self.middleware else None

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
        """
        wall_start = perf_counter()
        self.wall_s = dict.fromkeys(WALL_PHASES, 0.0)
        g = self.graph
        n = g.num_vertices
        state = algorithm.init_state(g)
        values, active = state.values, state.active
        width = values.shape[1] if values.ndim > 1 else 1
        cap = max_iterations if max_iterations is not None \
            else algorithm.default_max_iterations

        mw = self.middleware
        use_skip = bool(mw and mw.config.sync_skip)
        use_lazy = bool(mw and mw.config.lazy_upload)
        # monotone algorithms get the combined-local-iteration form of
        # synchronization skipping; others keep the strict detector.
        # An asynchronous engine forces the combined path outright.
        use_async = (use_skip or self.force_async) and algorithm.monotone
        detector = SkipDetector(self.pgraph) if (use_skip and
                                                 not use_async) else None

        setup_ms = 0.0
        if mw is not None and not mw.connected:
            setup_ms = mw.connect_all()

        # setup (daemon spawn + device init) is a one-time deployment
        # cost; it gets its own bucket so the Fig. 14 ratio reflects the
        # iterative processing the paper measures on long-running jobs.
        breakdown = {"middleware": 0.0, "device": 0.0, "engine": 0.0,
                     "setup": setup_ms}
        stats: List[IterationStats] = []
        total_ms = setup_ms
        converged = False
        iteration = 0
        if resume_from is not None:
            seeded = np.asarray(resume_from.values)
            if seeded.shape != values.shape:
                # a checkpoint or warm start from a different graph
                # version (or algorithm arity) can never be resumed —
                # better to refuse than to compute garbage
                raise EngineError(
                    f"resume_from values shape {seeded.shape} does not "
                    f"match the graph's state shape {values.shape}")
            values = np.array(resume_from.values, copy=True)
            active = np.array(resume_from.active, copy=True)
            iteration = int(resume_from.iteration)

        # fault tolerance: periodic vertex-table checkpoints plus the
        # iteration-0 state, so an unrecoverable node fault rolls the run
        # back to the last consistent superstep instead of failing it.
        store: Optional[CheckpointStore] = None
        origin = None
        if mw is not None:
            if mw.config.checkpoint_interval > 0:
                store = CheckpointStore(
                    mw.config.checkpoint_interval,
                    ms_per_cell=mw.config.checkpoint_ms_per_cell,
                    fixed_ms=mw.config.checkpoint_fixed_ms)
                if resume_from is not None:
                    # the resume point is already durable: install it as
                    # the free full base so a mid-run rollback can reach
                    # it before the first own checkpoint falls due
                    store.seed(iteration, values, active)
            if mw.config.degrade_to_host:
                origin = (values.copy(), active.copy())
            if any(a.degraded for a in mw.agents.values()):
                use_async = False  # degraded nodes force the strict path
        # external resume/peek handle for the serving layer (journal,
        # checkpoint-resume retries); None when checkpointing is off
        self.checkpoint_store = store
        rollbacks = 0
        wasted_ms = 0.0
        rebalance_events = 0
        rebalance_ms = 0.0
        rebalanced_for: set = set()
        # online Lemma-2 re-estimation (gray-failure response): track an
        # EWMA estimate of the per-node c_j from observed (d_j, T_j)
        # pairs; when the estimated optimal shares drift far enough from
        # the current partition, repartition without degrading anyone.
        scfg = mw.config.straggler if mw is not None else None
        reestimate = bool(scfg is not None and scfg.enabled
                          and scfg.reestimate)
        coeff_est: Optional[np.ndarray] = None
        fold_links = bool(reestimate and self.cluster.topology is not None)
        if reestimate:
            coeff_est = np.asarray(
                cluster_coefficients(self.cluster.nodes),
                dtype=np.float64)
        last_online_reb = -(10 ** 9)
        online_rebalances = 0
        coeff_updates = 0
        # vertices touched since the last checkpoint, for delta snapshots
        changed_accum: List[np.ndarray] = []
        # speculative checkpointing: delta writes issued behind the
        # barrier ride the next superstep's compute window; only their
        # overflow is charged (full snapshots stay synchronous).
        speculative = bool(mw is not None and store is not None
                           and mw.config.speculative_checkpoint)
        pending_ckpt_ms = 0.0
        hidden_ckpt_ms = 0.0

        while iteration < cap:
            step_ms0 = total_ms
            faults = mw.arm_faults(iteration) if mw is not None else 0
            before = self._fault_counters()
            net_before = self._net_counters()
            try:
                if use_async:
                    step = self._run_superstep_combined(
                        iteration, algorithm, values, active, width,
                        use_lazy, breakdown)
                else:
                    step = self._run_iteration(
                        iteration, algorithm, values, active, width,
                        detector, use_lazy, breakdown)
            except (AcceleratorsExhausted, NodeUnreachable) as failure:
                if (isinstance(failure, NodeUnreachable)
                        and not mw.config.degrade_to_host):
                    raise
                if isinstance(failure, NodeUnreachable):
                    # the watchdog's partition verdict: write the node's
                    # accelerators off and fall back to its host path
                    mw.agent_for(failure.node_id).degraded = True
                rollbacks += 1
                if rollbacks > max(MAX_ROLLBACKS, self.cluster.num_nodes):
                    raise EngineError(
                        f"{rollbacks} rollbacks without progress"
                    ) from failure
                if pending_ckpt_ms:
                    # the in-flight speculative delta must land before the
                    # restore can replay it; its window is gone, so the
                    # write charges in full.
                    total_ms += pending_ckpt_ms
                    breakdown["engine"] += pending_ckpt_ms
                    pending_ckpt_ms = 0.0
                failed_ms = getattr(failure, "elapsed_ms", 0.0)
                if not failed_ms and failure.__cause__ is not None:
                    failed_ms = getattr(failure.__cause__, "elapsed_ms",
                                        0.0)
                target, values, active, restore_ms = self._rollback(
                    store, origin, failure)
                wasted_ms += (sum(s.total_ms for s in stats[target:])
                              + failed_ms + restore_ms)
                del stats[target:]
                total_ms += failed_ms + restore_ms
                breakdown["engine"] += failed_ms + restore_ms
                iteration = target
                use_async = False  # the degraded node computes host-side
                changed_accum = []  # the store forces a full snapshot next
                if mw.config.rebalance_on_degrade:
                    newly_down = (set(mw.degraded_nodes())
                                  - rebalanced_for)
                    if newly_down:
                        reb_ms = self._rebalance(width)
                        rebalanced_for |= set(mw.degraded_nodes())
                        rebalance_events += 1
                        rebalance_ms += reb_ms
                        total_ms += reb_ms
                        breakdown["engine"] += reb_ms
                        if detector is not None:
                            detector = SkipDetector(self.pgraph)
                yield StepEvent("rollback", iteration,
                                total_ms - step_ms0)
                continue
            it_stats, values, active, changed_total, changed_ids = step
            after = self._fault_counters()
            net_after = self._net_counters()
            it_stats.faults_injected = faults
            it_stats.retries = after[0] - before[0]
            it_stats.recoveries = after[1] - before[1]
            it_stats.retransmits = net_after[0] - net_before[0]
            it_stats.dup_drops = net_after[1] - net_before[1]
            it_stats.net_wasted_ms = net_after[2] - net_before[2]
            stats.append(it_stats)
            iteration += 1
            if pending_ckpt_ms:
                # drain the previous superstep's speculative delta
                # against this superstep's compute window
                hidden = min(pending_ckpt_ms, it_stats.compute_ms)
                hidden_ckpt_ms += hidden
                it_stats.checkpoint_ms += pending_ckpt_ms - hidden
                pending_ckpt_ms = 0.0
            if changed_ids.size:
                changed_accum.append(changed_ids)
            took_checkpoint = store is not None and store.due(iteration)
            if took_checkpoint:
                changed = (np.concatenate(changed_accum) if changed_accum
                           else np.empty(0, dtype=np.int64))
                save_ms = store.save(
                    iteration, values, active, changed=changed)
                if speculative and store.last_save_was_delta:
                    pending_ckpt_ms += save_ms
                else:
                    it_stats.checkpoint_ms += save_ms
                changed_accum = []
            total_ms += it_stats.total_ms
            if (reestimate and it_stats.active_edges > 0
                    and it_stats.retries == 0
                    and it_stats.recoveries == 0
                    and not mw.degraded_nodes()
                    and getattr(mw, "straggler", None) is not None
                    and (mw.straggler.flagged
                         or mw.straggler.flagged_links)):
                # fold this superstep's observed (d_j, T_j) pairs into
                # the coefficient estimate.  Contaminated supersteps
                # (retries, recoveries) and degraded clusters are
                # skipped — degradation has its own rebalance path —
                # and so are supersteps with no flagged straggler:
                # benign coefficient noise (cache warmth, frontier
                # shape) must never repartition a healthy run, which
                # is what keeps the fault-free path bit-identical.
                obs = {part.node_id: (e, t) for part, t, e in
                       zip(self.pgraph.parts, it_stats.node_compute_ms,
                           it_stats.node_entities)}
                coeff_est = estimate_coefficients(obs, coeff_est,
                                                  alpha=scfg.ewma_alpha)
                coeff_updates += sum(1 for e, t in obs.values()
                                     if e > 0 and t > 0)
                if fold_links:
                    # fold each node's wire slope, inflated by the
                    # detector's per-link EWMA for flagged uplinks, so
                    # a slow cross-rack link shifts the optimum exactly
                    # the way a slow daemon does.  The bytes-per-entity
                    # conversion uses this superstep's *observed* sync
                    # payload, so locality / lazy uploading / combined
                    # iterations keep the wire slope honest.
                    bytes_per_entity = (
                        it_stats.uploads * width * BYTES_PER_CELL
                        / max(it_stats.active_edges, 1))
                    link_net = network_coefficients(
                        self.cluster.topology, bytes_per_entity)
                    sdet = mw.straggler
                    inflations = np.array(
                        [sdet.link_inflation(j) if sdet.is_slow_link(j)
                         else 1.0
                         for j in range(self.cluster.num_nodes)],
                        dtype=np.float64)
                    est_shares = balancing_factors(
                        link_adjusted_coefficients(
                            coeff_est, link_net, inflations))
                else:
                    est_shares = balancing_factors(coeff_est)
                sizes = np.zeros(self.cluster.num_nodes)
                for part in self.pgraph.parts:
                    sizes[part.node_id] = part.src.size
                if sizes.sum() > 0:
                    current = sizes / sizes.sum()
                    divergence = 0.5 * float(
                        np.abs(est_shares - current).sum())
                    if (divergence > scfg.share_divergence
                            and iteration - last_online_reb
                            >= scfg.rebalance_cooldown):
                        # Lemma 2 says the optimum moved: repartition to
                        # the estimated shares (shifting load *off* the
                        # straggling node) without writing anyone off
                        reb_ms = self._repartition_to(est_shares, width)
                        last_online_reb = iteration
                        online_rebalances += 1
                        rebalance_ms += reb_ms
                        total_ms += reb_ms
                        breakdown["engine"] += reb_ms
                        if detector is not None:
                            detector = SkipDetector(self.pgraph)
            if algorithm.is_converged(changed_total, iteration):
                converged = True
            yield StepEvent("superstep", iteration, total_ms - step_ms0,
                            converged, checkpointed=took_checkpoint)
            if converged:
                break

        if pending_ckpt_ms:
            # the job is over: the last speculative write has no compute
            # window left to hide behind and charges in full.
            if stats:
                stats[-1].checkpoint_ms += pending_ckpt_ms
            total_ms += pending_ckpt_ms
        net_totals = self._net_counters()
        det = getattr(mw, "straggler", None) if mw is not None else None
        sched_counters = (mw.scheduler_counters() if mw is not None
                          and hasattr(mw, "scheduler_counters")
                          else {})
        return RunResult(
            values=values,
            iterations=iteration,
            total_ms=total_ms,
            setup_ms=setup_ms,
            converged=converged,
            stats=stats,
            breakdown=breakdown,
            engine_name=self.name,
            algorithm_name=algorithm.name,
            skipped_iterations=(
                sum(1 for s in stats if s.skipped)
                + sum(s.local_iterations - 1 for s in stats)),
            rollbacks=rollbacks,
            wasted_ms=wasted_ms,
            degraded_nodes=(mw.degraded_nodes() if mw is not None else []),
            rebalance_events=rebalance_events,
            rebalance_ms=rebalance_ms,
            retransmits=net_totals[0],
            dup_drops=net_totals[1],
            net_wasted_ms=net_totals[2],
            checkpoint_hidden_ms=hidden_ckpt_ms,
            straggler_verdicts=len(det.verdicts) if det else 0,
            speculative_wins=det.speculative_wins if det else 0,
            speculative_losses=det.speculative_losses if det else 0,
            speculative_wasted_ms=(det.speculative_wasted_ms
                                   if det else 0.0),
            budget_overruns=det.budget_overruns if det else 0,
            coeff_updates=coeff_updates,
            online_rebalances=online_rebalances,
            link_verdicts=det.link_verdicts if det else 0,
            link_slow_ms=(mw.transport.link_slow_ms
                          if mw is not None and mw.transport is not None
                          else 0.0),
            wall_total_s=perf_counter() - wall_start,
            wall_s=dict(self.wall_s),
            sched_events=sched_counters.get("sched_events", 0),
            sched_batches=sched_counters.get("sched_batches", 0),
            sched_max_batch=sched_counters.get("sched_max_batch", 0),
            sched_heap_peak=sched_counters.get("sched_heap_peak", 0),
        )

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
        """Where collectives run: the resilient transport when the
        middleware carries one, else the cluster's topology (or flat
        network model) cost substrate."""
        mw = self.middleware
        if mw is not None and mw.transport is not None:
            return mw.transport
        return self.cluster.collectives

    def _net_counters(self) -> Tuple[int, int, float]:
        """(retransmits, dup_drops, net_wasted_ms) transport totals, for
        per-superstep deltas in the iteration stats."""
        mw = self.middleware
        if mw is None or mw.transport is None:
            return (0, 0, 0.0)
        t = mw.transport
        return (t.retransmits, t.dup_drops, t.net_wasted_ms)

    def _rebalance(self, width: int) -> float:
        """Repartition for the cluster's post-degradation capacities.

        Lemma 2 holds for whatever coefficients the cluster currently
        has, so after a node falls back to its host path the optimal
        shares shift away from it (§III-C).  Recomputes the shares with
        the degraded node's accelerators written off and repartitions.
        """
        shares = rebalanced_shares(self.cluster.nodes,
                                   self.middleware.degraded_nodes())
        return self._repartition_to(shares, width)

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
        moved_by_node = None
        if self.cluster.topology is not None:
            # price the migration over the links the rows actually
            # cross: each moved master uploads at its *new* node
            counts = np.bincount(pgraph.master_of[changed],
                                 minlength=self.cluster.num_nodes)
            moved_by_node = [float(c) * width * BYTES_PER_CELL
                             for c in counts]
        self._bind_partition(pgraph)
        for agent in mw.agents.values():
            agent.flush_cache()
        # the moved masters' rows cross the network as one collective
        return self.cluster.repartition_cost_ms(
            moved * width * BYTES_PER_CELL, network=self._network(),
            moved_by_node=moved_by_node)

    def _rollback(self, store: Optional[CheckpointStore], origin,
                  failure: AcceleratorsExhausted):
        """Restore the last consistent superstep after a node degraded.

        Returns ``(target_iteration, values, active, restore_ms)``.  Agent
        caches are flushed — they hold values from the discarded future.
        """
        if store is not None and store.latest is not None:
            ckpt = store.restore()
            target, vals, act = ckpt.iteration, ckpt.values, ckpt.active
            restore_ms = ckpt.cost_ms
        elif origin is not None:
            target, restore_ms = 0, 0.0
            vals, act = origin[0].copy(), origin[1].copy()
        else:  # pragma: no cover - degrade_to_host always records origin
            raise failure
        for agent in self.middleware.agents.values():
            agent.flush_cache()
        return target, vals, act, restore_ms

    def _node_accelerated(self, node_id: int) -> bool:
        """Does this node still compute through its agent's accelerators?"""
        mw = self.middleware
        return mw is not None and not mw.agent_for(node_id).degraded

    # -- one iteration ---------------------------------------------------------------------

    def _run_iteration(self, index: int, algorithm: AlgorithmTemplate,
                       values: np.ndarray, active: np.ndarray, width: int,
                       detector: Optional[SkipDetector], use_lazy: bool,
                       breakdown: Dict[str, float]):
        g = self.graph
        n = g.num_vertices
        mw = self.middleware

        # -- 1. per-node edge computation (parallel: pay the max) ------------
        partials: Dict[int, MessageSet] = {}
        node_ms: List[float] = []
        node_entities: List[int] = []
        hits = misses = evictions = writebacks = 0
        active_edges = 0
        crit_mw_ms = 0.0      # middleware share on the critical node
        crit_dev_ms = 0.0     # device share on the critical node
        crit_host_ms = 0.0    # host share (degraded nodes) on it
        crit_total = -1.0
        force_frontier = algorithm.requires_frontier_scan
        wall0 = perf_counter()
        for part in self.pgraph.parts:
            src, dst, w = self._select_edges(part, active, force_frontier)
            d = int(src.size)
            active_edges += d
            node_entities.append(d)
            if self._node_accelerated(part.node_id):
                agent = mw.agent_for(part.node_id)
                res = agent.edge_pass(src, dst, w, values, algorithm)
                partials[part.node_id] = res.partial
                node_ms.append(res.elapsed_ms)
                hits += res.cache_hits
                misses += res.cache_misses
                evictions += res.cache_evictions
                writebacks += res.cache_writebacks
                if res.elapsed_ms > crit_total:
                    crit_total = res.elapsed_ms
                    mw_busy = (
                        res.breakdown.get("middleware.download", 0.0)
                        + res.breakdown.get("middleware.upload", 0.0)
                        + res.breakdown.get("middleware.init", 0.0))
                    crit_mw_ms = min(mw_busy, res.elapsed_ms)
                    crit_dev_ms = res.elapsed_ms - crit_mw_ms
                    crit_host_ms = 0.0
            else:
                # no middleware, or the node degraded to its CPU baseline
                # path after exhausting its accelerators
                partial, host_ms = self._host_edge_pass(
                    part.node_id, src, dst, w, values, algorithm)
                partials[part.node_id] = partial
                node_ms.append(host_ms)
                if mw is not None and host_ms > crit_total:
                    crit_total = host_ms
                    crit_mw_ms = crit_dev_ms = 0.0
                    crit_host_ms = host_ms
        self.wall_s["gen"] += perf_counter() - wall0
        compute_ms = max(node_ms) if node_ms else 0.0
        if mw is not None:
            breakdown["middleware"] += max(crit_mw_ms, 0.0)
            breakdown["device"] += max(crit_dev_ms, 0.0)
            breakdown["engine"] += crit_host_ms
        else:
            breakdown["engine"] += compute_ms

        # -- 2. global merge ---------------------------------------------------
        wall0 = perf_counter()
        combined = algorithm.combine_many(
            [partials[node_id] for node_id in sorted(partials)])
        self.wall_s["merge"] += perf_counter() - wall0

        # -- 3. apply at masters (parallel) --------------------------------------
        wall0 = perf_counter()
        apply_times: List[float] = []
        changed_by_node: Dict[int, np.ndarray] = {}
        new_values = values
        for part in self.pgraph.parts:
            own = self._master_sets[part.node_id]
            if combined.size:
                sel = own[combined.ids]
                merged_here = MessageSet(combined.ids[sel],
                                         combined.data[sel])
            else:
                merged_here = algorithm.empty_messages()
            if self._node_accelerated(part.node_id):
                agent = mw.agent_for(part.node_id)
                cand, changed, cost = agent.request_apply(
                    new_values, merged_here, algorithm)
            else:
                cand, changed = algorithm.msg_apply(new_values, merged_here)
                cost = self._host_apply_ms(part.node_id, merged_here.size)
            changed = changed[own[changed]] if changed.size else changed
            if changed.size:
                new_values = new_values.copy() if new_values is values \
                    else new_values
                new_values[changed] = cand[changed]
            changed_by_node[part.node_id] = changed
            if mw is not None:
                cost += self._scatter_cost_ms(part.node_id, changed.size)
            apply_times.append(cost)
        apply_ms = max(apply_times) if apply_times else 0.0
        values = new_values
        self.wall_s["apply"] += perf_counter() - wall0
        if mw is not None:
            # apply is dominated by transfer bookkeeping; split half/half
            breakdown["middleware"] += apply_ms * 0.5
            breakdown["device"] += apply_ms * 0.5
            wall0 = perf_counter()
            for part in self.pgraph.parts:
                agent = mw.agent_for(part.node_id)
                if not agent.degraded:
                    agent.note_master_updates(changed_by_node[part.node_id])
            self.wall_s["cache"] += perf_counter() - wall0
        else:
            breakdown["engine"] += apply_ms

        all_changed = (np.concatenate(list(changed_by_node.values()))
                       if changed_by_node else np.empty(0, dtype=np.int64))
        changed_total = int(all_changed.size)

        # -- 4. frontier for the next iteration -----------------------------------
        active = algorithm.next_active(g, all_changed, n)

        # -- 5. synchronization (or skip) --------------------------------------------
        skipped = False
        sync_ms = 0.0
        uploads = 0
        if detector is not None and detector.can_skip(partials,
                                                      changed_by_node):
            skipped = True
        else:
            wall0 = perf_counter()
            try:
                sync_ms, uploads, needed_by_node = self._sync_cost(
                    changed_by_node, active, width, use_lazy)
            except NodeUnreachable as verdict:
                # the whole superstep is discarded with the failed sync
                verdict.elapsed_ms = (compute_ms + apply_ms
                                      + verdict.wasted_ms)
                raise
            finally:
                self.wall_s["sync"] += perf_counter() - wall0
            breakdown["engine"] += sync_ms
            if mw is not None:
                wall0 = perf_counter()
                self._settle_caches(changed_by_node, needed_by_node)
                self.wall_s["cache"] += perf_counter() - wall0

        return (IterationStats(
            index=index,
            active_edges=active_edges,
            compute_ms=compute_ms,
            apply_ms=apply_ms,
            sync_ms=sync_ms,
            skipped=skipped,
            changed_vertices=changed_total,
            uploads=uploads,
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=evictions,
            cache_writebacks=writebacks,
            node_compute_ms=node_ms,
            node_entities=node_entities,
        ), values, active, changed_total, all_changed)

    # -- combined local iterations (synchronization skipping, §III-B3) ---------------

    def _run_superstep_combined(self, index: int,
                                algorithm: AlgorithmTemplate,
                                values: np.ndarray, active: np.ndarray,
                                width: int, use_lazy: bool,
                                breakdown: Dict[str, float]):
        """One superstep where every node iterates locally to quiescence.

        The §III-B3 mechanism for monotone algorithms: a node applies the
        messages addressed to its own masters immediately and keeps
        iterating ("multiple computation iterations can be equivalent to
        a logically combined iteration"); messages addressed to foreign
        masters are buffered and delivered at one global synchronization
        when all nodes are locally quiescent.
        """
        g = self.graph
        n = g.num_vertices
        mw = self.middleware
        node_ms: List[float] = []
        node_apply_ms: List[float] = []
        node_entities: List[int] = []
        hits = misses = evictions = writebacks = 0
        active_edges = 0
        max_sub = 0
        crit_mw_ms = crit_dev_ms = 0.0
        crit_total = -1.0
        foreign_parts: List[MessageSet] = []
        foreign_cells = [0] * self.cluster.num_nodes
        local_changed_parts: List[np.ndarray] = []
        pending_parts: List[np.ndarray] = []
        new_values = values.copy()

        for part in self.pgraph.parts:
            own = self._master_sets[part.node_id]
            agent = mw.agent_for(part.node_id)
            local_active = active.copy()
            t_compute = 0.0
            t_apply = 0.0
            t_entities = 0
            sub = 0
            changed_accum: List[np.ndarray] = []
            mw_ms = dev_ms = 0.0
            depth_cap = max(1, mw.config.skip_max_local_iterations)
            pending: np.ndarray = np.empty(0, dtype=np.int64)
            while True:
                # combined local iterations always run frontier-driven:
                # the upper system (and its full triplet view) is not
                # involved between skipped syncs — nodes iterate from
                # agent-local data (§III-B3)
                sel = local_active[part.src]
                src = part.src[sel]
                if src.size == 0:
                    break
                dst = part.dst[sel]
                w = part.weights[sel]
                if sub == 0:
                    active_edges += int(src.size)
                t_entities += int(src.size)
                wall0 = perf_counter()
                res = agent.edge_pass(src, dst, w, new_values, algorithm)
                self.wall_s["gen"] += perf_counter() - wall0
                t_compute += res.elapsed_ms
                hits += res.cache_hits
                misses += res.cache_misses
                evictions += res.cache_evictions
                writebacks += res.cache_writebacks
                mw_busy = (res.breakdown.get("middleware.download", 0.0)
                           + res.breakdown.get("middleware.upload", 0.0)
                           + res.breakdown.get("middleware.init", 0.0))
                mw_busy = min(mw_busy, res.elapsed_ms)
                mw_ms += mw_busy
                dev_ms += res.elapsed_ms - mw_busy
                sub += 1
                partial = res.partial
                if partial.size == 0:
                    break
                own_sel = own[partial.ids]
                local_part = MessageSet(partial.ids[own_sel],
                                        partial.data[own_sel])
                foreign_part = MessageSet(partial.ids[~own_sel],
                                          partial.data[~own_sel])
                if foreign_part.size:
                    foreign_parts.append(foreign_part)
                    foreign_cells[part.node_id] += int(foreign_part.size)
                if local_part.size == 0:
                    break
                wall0 = perf_counter()
                cand, changed, cost = agent.request_apply(
                    new_values, local_part, algorithm)
                self.wall_s["apply"] += perf_counter() - wall0
                t_apply += cost
                changed = changed[own[changed]] if changed.size else changed
                if changed.size == 0:
                    break
                new_values[changed] = cand[changed]
                wall0 = perf_counter()
                agent.note_master_updates(changed)
                self.wall_s["cache"] += perf_counter() - wall0
                changed_accum.append(changed)
                if sub >= depth_cap:
                    # depth bound reached: hand the unfinished frontier to
                    # the next superstep instead of fast-forwarding on
                    pending = changed
                    break
                local_active = np.zeros(n, dtype=bool)
                local_active[changed] = True
            if pending.size:
                pending_parts.append(pending)
            node_ms.append(t_compute)
            node_apply_ms.append(t_apply)
            node_entities.append(t_entities)
            max_sub = max(max_sub, sub)
            if t_compute + t_apply > crit_total:
                crit_total = t_compute + t_apply
                crit_dev_ms = dev_ms
                crit_mw_ms = mw_ms
            if changed_accum:
                local_changed_parts.append(np.concatenate(changed_accum))

        compute_ms = max(node_ms) if node_ms else 0.0
        apply_ms = max(node_apply_ms) if node_apply_ms else 0.0
        breakdown["middleware"] += max(crit_mw_ms, 0.0) + apply_ms * 0.5
        breakdown["device"] += max(crit_dev_ms, 0.0) + apply_ms * 0.5

        # -- global sync: deliver the buffered foreign messages -------------
        sync_changed: List[np.ndarray] = []
        changed_by_node: Dict[int, np.ndarray] = {}
        sync_ms = 0.0
        uploads = 0
        wall0 = perf_counter()
        foreign_buffer = algorithm.combine_many(foreign_parts)
        self.wall_s["merge"] += perf_counter() - wall0
        skipped = foreign_buffer.size == 0
        if not skipped:
            wall1 = perf_counter()
            uploads = foreign_buffer.size
            payload_bytes = (uploads * width * BYTES_PER_CELL
                             + self._mirror_sync_cells(
                                 foreign_buffer.ids, width)
                             * BYTES_PER_CELL)
            try:
                sync_ms = self._network().sync_ms(
                    self.cluster.num_nodes, payload_bytes,
                    bytes_by_node=[c * width * BYTES_PER_CELL
                                   for c in foreign_cells])
            except NodeUnreachable as verdict:
                # the whole superstep is discarded with the failed sync
                verdict.elapsed_ms = (compute_ms + apply_ms
                                      + verdict.wasted_ms)
                raise
            sync_ms += max(node.runtime.sync_fixed_ms
                           for node in self.cluster.nodes)
            apply_sync: List[float] = []
            for part in self.pgraph.parts:
                own = self._master_sets[part.node_id]
                sel = own[foreign_buffer.ids]
                merged_here = MessageSet(foreign_buffer.ids[sel],
                                         foreign_buffer.data[sel])
                if merged_here.size == 0:
                    changed_by_node[part.node_id] = np.empty(
                        0, dtype=np.int64)
                    continue
                agent = mw.agent_for(part.node_id)
                cand, changed, cost = agent.request_apply(
                    new_values, merged_here, algorithm)
                apply_sync.append(cost)
                changed = changed[own[changed]] if changed.size else changed
                if changed.size:
                    new_values[changed] = cand[changed]
                    agent.note_master_updates(changed)
                    sync_changed.append(changed)
                changed_by_node[part.node_id] = changed
            if apply_sync:
                sync_ms += max(apply_sync)
            breakdown["engine"] += sync_ms
            self.wall_s["sync"] += perf_counter() - wall1
            wall1 = perf_counter()
            self._invalidate_foreign(changed_by_node)
            for part in self.pgraph.parts:
                agent = mw.agent_for(part.node_id)
                if not agent.degraded:
                    agent.settle_dirty()
            self.wall_s["cache"] += perf_counter() - wall1

        # frontier: vertices changed by the sync, frontiers left
        # unfinished by the depth bound, plus local changes whose
        # out-edges are stored on other nodes (vertex-cut replicas)
        frontier_parts = list(sync_changed) + pending_parts
        for changed in local_changed_parts:
            cross = changed[~self._stored_local[changed]]
            if cross.size:
                frontier_parts.append(cross)
        all_changed = (np.concatenate(frontier_parts) if frontier_parts
                       else np.empty(0, dtype=np.int64))
        active = algorithm.next_active(g, all_changed, n)
        if all_changed.size == 0:
            active = np.zeros(n, dtype=bool)

        changed_total = int(all_changed.size)
        # every vertex whose value actually moved this superstep (the
        # frontier above is a subset) — what a delta checkpoint must cover
        ckpt_parts = local_changed_parts + sync_changed
        ckpt_changed = (np.concatenate(ckpt_parts) if ckpt_parts
                        else np.empty(0, dtype=np.int64))
        return (IterationStats(
            index=index,
            active_edges=active_edges,
            compute_ms=compute_ms,
            apply_ms=apply_ms,
            sync_ms=sync_ms,
            skipped=skipped,
            changed_vertices=changed_total,
            uploads=uploads,
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=evictions,
            cache_writebacks=writebacks,
            node_compute_ms=node_ms,
            node_entities=node_entities,
            local_iterations=max(max_sub, 1),
        ), new_values, active, changed_total, ckpt_changed)

    def _select_edges(self, part, active: np.ndarray,
                      force_frontier: bool = False):
        """The edges a node processes this round, per the scan policy.

        A full scan still requires at least one active local source —
        a node whose partition is entirely quiescent does no work.
        Event-message algorithms force frontier scans everywhere.
        """
        sel = active[part.src]
        if (self.edge_scan == "full" and not force_frontier
                and sel.any()):
            return part.src, part.dst, part.weights
        return part.src[sel], part.dst[sel], part.weights[sel]

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
            np.concatenate(list(changed_by_node.values()))
            if changed_by_node else np.empty(0, dtype=np.int64), width)
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
        invalidated and will be re-downloaded on demand.
        """
        mw = self.middleware
        for part in self.pgraph.parts:
            agent = mw.agent_for(part.node_id)
            if agent.degraded:
                continue
            agent.settle_dirty()
            foreign = [ids for node, ids in changed_by_node.items()
                       if node != part.node_id]
            if not foreign:
                continue
            stale = np.concatenate(foreign)
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

    def _invalidate_foreign(self, changed_by_node: Dict[int, np.ndarray]
                            ) -> None:
        """Foreign updates stale out the other agents' cache entries."""
        mw = self.middleware
        for part in self.pgraph.parts:
            foreign = [ids for node, ids in changed_by_node.items()
                       if node != part.node_id]
            if not foreign:
                continue
            stale = np.concatenate(foreign)
            if stale.size and not mw.agent_for(part.node_id).degraded:
                mw.agent_for(part.node_id).invalidate_cache(stale)
