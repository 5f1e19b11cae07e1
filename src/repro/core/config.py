"""Middleware configuration.

One :class:`MiddlewareConfig` collects every optimization toggle the paper
evaluates, so each figure's bench is an ablation of exactly one knob:

* ``pipeline`` / ``block_size``      — §III-A  (Fig. 10, Fig. 15)
* ``sync_cache`` / ``lazy_upload``   — §III-B2 (Fig. 11(a))
* ``sync_skip``                      — §III-B3 (Fig. 11(b))
* ``runtime_isolation``              — §IV-C   (Fig. 13)

plus the fault tiers' switches (``fault_plan``, ``monitor_heartbeats``,
``checkpoint_interval``, ``degrade_to_host``, ...); their timing
constants live with the classes that use them (docs/fault_tolerance.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional

from ..errors import MiddlewareError
from ..fault.inject import FaultPlan


def check_count(name: str, value, minimum: int) -> None:
    """Refuse a count that is not an integer ``>= minimum``: ``bool``
    and floats included, so a bad value fails here rather than deep
    inside numpy mid-run.  ``np.int64`` and friends are integers."""
    if (not isinstance(value, Integral) or isinstance(value, bool)
            or value < minimum):
        raise MiddlewareError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class StragglerConfig:
    """Gray-failure tolerance knobs (:mod:`repro.fault.straggler`).

    Off by default — detection is zero-simulated-cost bookkeeping, but
    the responses (speculation, online re-estimation) change how a run
    spends its time under gray faults, so they are an explicit opt-in
    (on in the ``RESILIENT`` presets).
    """

    #: Track per-daemon EWMA inflation and issue StragglerVerdicts.
    enabled: bool = False

    #: A pair whose EWMA inflation exceeds the cross-daemon median by
    #: this multiple is slow enough to flag.
    ratio: float = 3.0

    #: Re-issue a flagged straggler's pending block to the fastest idle
    #: daemon; first finisher wins (deterministic tie-break), the
    #: loser's result is discarded and its time charged as waste.
    speculate: bool = False

    #: Feed observed per-node times back into the Lemma-2 coefficient
    #: estimates and repartition when the estimated shares drift.
    reestimate: bool = False

    #: Flag threshold for per-*link* inflation (uplink fragments over a
    #: rack topology, judged against the other links' median); ``None``
    #: reuses ``ratio``.
    link_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if self.link_ratio is not None and self.link_ratio <= 1.0:
            raise MiddlewareError(
                f"link_ratio must be > 1, got {self.link_ratio}"
            )
        if self.ratio <= 1.0:
            raise MiddlewareError(
                f"straggler ratio must be > 1, got {self.ratio}"
            )
        if (self.speculate or self.reestimate) and not self.enabled:
            raise MiddlewareError(
                "straggler responses (speculate / reestimate) require "
                "enabled=True — there is nothing to respond to without "
                "detection"
            )

    def with_(self, **changes) -> "StragglerConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MiddlewareConfig:
    """Feature toggles and tunables for a GX-Plug deployment."""

    #: Run the 3-stage pipeline shuffle (§III-A).  When off, the five-step
    #: sequential flow is used (download, transfer, compute, transfer,
    #: upload — the "Without pipeline" bars of Fig. 10).
    pipeline: bool = True

    #: Fixed triplet-block size.  ``None`` selects the Lemma-1 optimal
    #: size per iteration ("Pipeline*"); an integer pins it ("Pipeline").
    block_size: Optional[int] = None

    #: LRU-weighted vertex caching on agents (§III-B2a).
    sync_cache: bool = True

    #: Cache capacity in vertices; ``None`` means the agent's
    #: ``DEFAULT_CACHE_CAPACITY`` of 1 000 000 — nominally unbounded (the
    #: paper's agents cache a "temporary vertex table"; the cache's tables
    #: grow with residency, so the nominal size costs nothing), with
    #: eviction starting only on a node that references more vertices.
    cache_capacity: Optional[int] = None

    #: Lazy uploading through the global query/data queues (§III-B2b).
    lazy_upload: bool = True

    #: Synchronization skipping (§III-B3).
    sync_skip: bool = True

    #: Depth bound on the locally combined iterations of a skipping
    #: superstep.  Unbounded local fast-forward can re-propagate stale
    #: improvements back and forth across partition boundaries (wasted
    #: re-work on long-diameter graphs); a moderate bound keeps most of
    #: the synchronization savings without the ping-pong.
    skip_max_local_iterations: int = 10

    #: Keep daemons alive between iterations (§IV-C).  When off, devices
    #: re-initialize on every request — the "direct GPU call" side of
    #: Fig. 13.
    runtime_isolation: bool = True

    # -- fault tolerance (repro.fault) ------------------------------------

    #: Deterministic fault schedule to inject, armed superstep by
    #: superstep; ``None`` injects nothing.
    fault_plan: Optional[FaultPlan] = None

    #: Per-daemon heartbeats with a watchdog on every pipelined pass.
    #: Required to *detect* stall faults (hangs, dropped control
    #: messages); off by default so fault-free deployments pay nothing.
    monitor_heartbeats: bool = False

    #: Checkpoint the vertex tables every N supersteps (0 disables).
    #: With checkpoints, unrecoverable faults roll back to the last
    #: consistent superstep instead of restarting from iteration 0.
    checkpoint_interval: int = 0

    #: When a node's accelerators stay broken past the retry budget,
    #: degrade that node to the host (CPU baseline) compute path instead
    #: of failing the job.  Off by default: exhaustion re-raises, which
    #: is the pre-fault-subsystem behaviour.
    degrade_to_host: bool = False

    # -- network-layer fault tolerance (repro.cluster.network) -------------

    #: Route sync collectives through the resilient transport (acks,
    #: sequence-number dedupe, timeout + backoff retransmission, p2p
    #: fallback for failed rounds).  Required to arm network fault kinds;
    #: off by default — the fault-free path pays zero overhead either
    #: way, but the bare model keeps the original behaviour exactly.
    network_resilient: bool = False

    #: Recompute Lemma-2 partition shares and repartition the graph when
    #: a node degrades to its host path, so the degraded node stops
    #: straggling every subsequent superstep.  Requires
    #: ``degrade_to_host``; charged as a partition-exchange network cost
    #: at rollback time.
    rebalance_on_degrade: bool = False

    # -- gray-failure tolerance (repro.fault.straggler) --------------------

    #: Straggler detection and its responses; see :class:`StragglerConfig`.
    straggler: StragglerConfig = StragglerConfig()

    def __post_init__(self) -> None:
        if self.block_size is not None:
            check_count("block_size", self.block_size, 1)
        if self.cache_capacity is not None:
            check_count("cache_capacity", self.cache_capacity, 1)
        check_count("skip_max_local_iterations",
                    self.skip_max_local_iterations, 1)
        check_count("checkpoint_interval", self.checkpoint_interval, 0)
        if self.lazy_upload and not self.sync_cache:
            raise MiddlewareError(
                "lazy_upload requires sync_cache (updates are held in the "
                "agent cache until queried)"
            )
        if self.sync_skip and not self.sync_cache:
            raise MiddlewareError(
                "sync_skip builds on synchronization caching (§III-B3)"
            )
        if self.monitor_heartbeats and not self.pipeline:
            raise MiddlewareError(
                "monitor_heartbeats requires the pipelined protocol: "
                "heartbeats ride on the Algorithm 1-2 message exchange"
            )
        if self.straggler.speculate and not self.pipeline:
            raise MiddlewareError(
                "speculative block re-execution rides the pipelined "
                "protocol (Algorithms 1-2); it requires pipeline=True"
            )
        if (self.fault_plan is not None and self.fault_plan.requires_monitor
                and not self.monitor_heartbeats):
            raise MiddlewareError(
                "the fault plan contains stall faults (hang / message "
                "drop); detecting them requires monitor_heartbeats=True"
            )
        if (self.fault_plan is not None
                and self.fault_plan.requires_transport
                and not self.network_resilient):
            raise MiddlewareError(
                "the fault plan contains network faults (net_drop / "
                "net_delay / net_dup / sync_fail / node_partition / "
                "link_slow / link_flaky); surviving them requires "
                "network_resilient=True"
            )
        if self.rebalance_on_degrade and not self.degrade_to_host:
            raise MiddlewareError(
                "rebalance_on_degrade rebalances at degradation rollback "
                "time; it requires degrade_to_host=True"
            )

    def with_(self, **changes) -> "MiddlewareConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def preset(cls, name: str) -> "MiddlewareConfig":
        """The named preset (``"full"`` / ``"baseline"`` /
        ``"resilient"`` / ``"network-resilient"``)."""
        try:
            return PRESETS[name]
        except KeyError:
            raise MiddlewareError(
                f"unknown preset {name!r}; expected one of "
                f"{sorted(PRESETS)}") from None


#: Everything on — the full GX-Plug as evaluated in Fig. 8/9.
FULL = MiddlewareConfig()

#: Every optimization off — the naive daemon-agent integration.
BASELINE = MiddlewareConfig(
    pipeline=False,
    sync_cache=False,
    lazy_upload=False,
    sync_skip=False,
)

#: FULL plus the fault-tolerance layer: heartbeat monitoring, periodic
#: superstep checkpoints, CPU degradation when accelerators die, and the
#: gray-failure tier (straggler detection, speculative re-execution,
#: online Lemma-2 re-estimation).
RESILIENT = MiddlewareConfig(
    monitor_heartbeats=True,
    checkpoint_interval=2,
    degrade_to_host=True,
    straggler=StragglerConfig(enabled=True, speculate=True,
                              reestimate=True),
)

#: RESILIENT plus the network layer: resilient sync collectives
#: (acks, dedupe, retransmission, p2p fallback) and Lemma-2 partition
#: rebalancing when a node degrades to its host path.
NETWORK_RESILIENT = MiddlewareConfig(
    monitor_heartbeats=True,
    checkpoint_interval=2,
    degrade_to_host=True,
    network_resilient=True,
    rebalance_on_degrade=True,
    straggler=StragglerConfig(enabled=True, speculate=True,
                              reestimate=True),
)

#: Named presets resolvable through :meth:`MiddlewareConfig.preset`.
PRESETS = {
    "full": FULL,
    "baseline": BASELINE,
    "resilient": RESILIENT,
    "network-resilient": NETWORK_RESILIENT,
}

#: The old name of the one config type, still imported by
#: ``perfbench/batch.py``.
RuntimeConfig = MiddlewareConfig


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of the simulated cluster — the blessed
    way to build one (:mod:`repro.api`), subsuming the ``make_cluster``
    / ``NetworkModel`` / ``Topology`` kwargs that used to thread through
    engines, benches and the CLI.

    ``topology`` is a spec string (``"rack:RxN"`` — R racks of N nodes —
    or ``"flat:N"``); ``None`` keeps the historical flat interconnect.
    The optional ``latency_ms`` / ``ms_per_byte`` / ``coord_ms_per_node``
    override the base :class:`NetworkModel` fields; the cross factors
    scale the intra-rack link into the cross-rack default.  The spec is
    plain data: :meth:`to_dict` is recorded verbatim in trace JSON.
    """

    nodes: int = 4
    gpus_per_node: int = 1
    cpus_per_node: int = 0
    runtime: str = "native"
    topology: Optional[str] = None
    latency_ms: Optional[float] = None
    ms_per_byte: Optional[float] = None
    coord_ms_per_node: Optional[float] = None
    cross_latency_factor: float = 4.0
    cross_byte_factor: float = 4.0

    def __post_init__(self) -> None:
        check_count("nodes", self.nodes, 1)
        check_count("gpus_per_node", self.gpus_per_node, 0)
        check_count("cpus_per_node", self.cpus_per_node, 0)
        if self.runtime not in ("native", "jvm"):
            raise MiddlewareError(
                f"unknown runtime {self.runtime!r} (want 'native'/'jvm')")
        if min(self.cross_latency_factor, self.cross_byte_factor) < 1.0:
            raise MiddlewareError("cross-rack factors must be >= 1")
        for name in ("latency_ms", "ms_per_byte", "coord_ms_per_node"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise MiddlewareError(f"{name} must be >= 0, got {value}")
        if self.topology is not None:
            from ..cluster.topology import Topology
            racks = Topology.parse_spec(self.topology)
            spanned = sum(len(r) for r in racks)
            if spanned != self.nodes:
                raise MiddlewareError(
                    f"topology {self.topology!r} spans {spanned} nodes, "
                    f"spec asks for {self.nodes}")
            for (src, dst) in Topology.parse_link_overrides(self.topology):
                for end in (src, dst):
                    if not 0 <= end < self.nodes:
                        raise MiddlewareError(
                            f"topology {self.topology!r} overrides link "
                            f"({src}, {dst}) but node {end} is outside "
                            f"0..{self.nodes - 1}")

    def network_model(self):
        """The base :class:`NetworkModel` with any field overrides."""
        from ..cluster.network import DEFAULT_NETWORK, NetworkModel
        if (self.latency_ms is None and self.ms_per_byte is None
                and self.coord_ms_per_node is None):
            return DEFAULT_NETWORK
        base = DEFAULT_NETWORK
        return NetworkModel(
            latency_ms=(self.latency_ms if self.latency_ms is not None
                        else base.latency_ms),
            ms_per_byte=(self.ms_per_byte if self.ms_per_byte is not None
                         else base.ms_per_byte),
            coord_ms_per_node=(self.coord_ms_per_node
                               if self.coord_ms_per_node is not None
                               else base.coord_ms_per_node))

    def build_topology(self):
        """The resolved :class:`Topology`, or ``None`` for flat."""
        if self.topology is None:
            return None
        from ..cluster.topology import Topology
        return Topology.from_spec(
            self.topology, base=self.network_model(),
            cross_latency_factor=self.cross_latency_factor,
            cross_byte_factor=self.cross_byte_factor)

    def build(self):
        """Materialize the :class:`~repro.cluster.cluster.Cluster`."""
        from ..cluster.cluster import Cluster, make_cluster
        from ..cluster.node import HOST_RUNTIMES
        cluster = make_cluster(self.nodes, gpus_per_node=self.gpus_per_node,
                               cpu_accels_per_node=self.cpus_per_node,
                               runtime=HOST_RUNTIMES[self.runtime])
        return Cluster(cluster.nodes, self.network_model(),
                       topology=self.build_topology())

    def to_dict(self) -> dict:
        """The spec as plain JSON types, for trace recording."""
        return {
            "nodes": self.nodes,
            "gpus_per_node": self.gpus_per_node,
            "cpus_per_node": self.cpus_per_node,
            "runtime": self.runtime,
            "topology": self.topology,
            "latency_ms": self.latency_ms,
            "ms_per_byte": self.ms_per_byte,
            "coord_ms_per_node": self.coord_ms_per_node,
            "cross_latency_factor": self.cross_latency_factor,
            "cross_byte_factor": self.cross_byte_factor,
        }

    def with_(self, **changes) -> "ClusterSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
