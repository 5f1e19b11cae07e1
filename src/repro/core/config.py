"""Middleware configuration.

One :class:`MiddlewareConfig` collects every optimization toggle the paper
evaluates, so each figure's bench is an ablation of exactly one knob:

* ``pipeline`` / ``block_size``      — §III-A  (Fig. 10, Fig. 15)
* ``sync_cache`` / ``lazy_upload``   — §III-B2 (Fig. 11(a))
* ``sync_skip``                      — §III-B3 (Fig. 11(b))
* ``runtime_isolation``              — §IV-C   (Fig. 13)

plus the fault tiers' switches (``fault_plan``, ``checkpoint_interval``,
``degrade_to_host``, ...); their timing constants live with the classes
that use them (docs/fault_tolerance.md).  The heartbeat monitor has no
switch: a pipelined pass arms it when the fault plan holds a stall.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import MiddlewareError

if TYPE_CHECKING:  # the cost modules import this one: no cycle at run time
    from ..fault.inject import FaultPlan


def check_count(name: str, value, minimum: int, *,
                error=MiddlewareError) -> None:
    """Refuse a count that is not an integer ``>= minimum``: ``bool``
    and floats included, so a bad value fails here rather than deep
    inside numpy mid-run.  ``np.int64`` and friends are integers.
    ``error`` is the exception class the caller's layer raises."""
    if (not isinstance(value, Integral) or isinstance(value, bool)
            or value < minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_cost(name: str, value, *, positive: bool = False,
               error=MiddlewareError) -> float:
    """Refuse a cost that is not a finite real ``>= 0`` (``> 0`` with
    ``positive``) and return it as a ``float``.  ``bool``, NaN and
    ±inf are refused too: a ``< 0`` guard passes NaN, which then prices
    a transfer as free or poisons every total it reaches.  ``error`` is
    the exception class the caller's layer raises."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")
    if value < 0 or (positive and value == 0):
        raise error(f"{name} must be {'positive' if positive else '>= 0'}, "
                    f"got {value!r}")
    return float(value)


def _check_switches(config) -> None:
    """Refuse a switch (a field annotated ``bool``) holding anything but
    a ``bool`` or ``np.bool_``: ``"yes"`` or ``1`` would read as set."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "bool" and not isinstance(value, (bool, np.bool_)):
            raise MiddlewareError(f"{f.name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class StragglerConfig:
    """Gray-failure tolerance switches (:mod:`repro.fault.straggler`).

    Off by default — detection is zero-simulated-cost bookkeeping, but
    its responses change how a run spends its time under gray faults,
    so they are an explicit opt-in (on in the ``RESILIENT`` presets).
    The flag threshold is the detector's own; a flagged pair's block is
    hedged whenever its measured inflation says a backup can win.
    """

    #: Track per-daemon EWMA inflation, issue StragglerVerdicts, and
    #: speculatively re-execute the blocks of a flagged pair slow enough
    #: for a backup to finish first.
    enabled: bool = False

    #: Feed observed per-node times back into the Lemma-2 coefficient
    #: estimates and repartition when the estimated shares drift.
    reestimate: bool = False

    def __post_init__(self) -> None:
        _check_switches(self)
        if self.reestimate and not self.enabled:
            raise MiddlewareError(
                "online re-estimation requires enabled=True — there is "
                "nothing to respond to without detection"
            )


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
    #: superstep; ``None`` injects nothing.  A plan with stall faults
    #: (hangs, dropped control messages) arms per-daemon heartbeats and
    #: a watchdog on every pipelined pass, the only way to detect them.
    fault_plan: Optional[FaultPlan] = None

    #: Checkpoint the vertex tables every N supersteps (0 disables).
    #: With checkpoints, unrecoverable faults roll back to the last
    #: consistent superstep instead of restarting from iteration 0.
    checkpoint_interval: int = 0

    #: When a node's accelerators stay broken past the retry budget,
    #: degrade that node to the host (CPU baseline) compute path instead
    #: of failing the job.  Off by default: exhaustion re-raises, which
    #: is the pre-fault-subsystem behaviour.
    degrade_to_host: bool = False

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
        _check_switches(self)
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
        if (self.fault_plan is not None and self.fault_plan.requires_monitor
                and not self.pipeline):
            raise MiddlewareError(
                "the fault plan contains stall faults (hang / message "
                "drop); detecting them takes heartbeats, which ride the "
                "Algorithm 1-2 message exchange: it requires pipeline=True"
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

#: FULL plus the fault-tolerance layer: periodic superstep checkpoints,
#: CPU degradation when accelerators die, and the gray-failure tier
#: (straggler detection, speculative re-execution, online Lemma-2
#: re-estimation).
RESILIENT = MiddlewareConfig(
    checkpoint_interval=2,
    degrade_to_host=True,
    straggler=StragglerConfig(enabled=True, reestimate=True),
)

#: RESILIENT plus Lemma-2 partition rebalancing when a node degrades to
#: its host path (a partitioned node's verdict, for one).
NETWORK_RESILIENT = MiddlewareConfig(
    checkpoint_interval=2,
    degrade_to_host=True,
    rebalance_on_degrade=True,
    straggler=StragglerConfig(enabled=True, reestimate=True),
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
    or ``"flat:N"``, either with ``;link=`` clauses pinning individual
    links); ``None`` is ``"flat:N"`` for this spec's ``nodes``.  The
    optional ``ms_per_byte`` overrides the base
    :class:`~repro.cluster.network.NetworkModel`'s bandwidth cost.  The
    spec is plain data: :meth:`to_dict` is recorded verbatim in trace
    JSON.
    """

    nodes: int = 4
    gpus_per_node: int = 1
    cpus_per_node: int = 0
    runtime: str = "native"
    topology: Optional[str] = None
    ms_per_byte: Optional[float] = None

    def __post_init__(self) -> None:
        check_count("nodes", self.nodes, 1)
        check_count("gpus_per_node", self.gpus_per_node, 0)
        check_count("cpus_per_node", self.cpus_per_node, 0)
        if self.runtime not in ("native", "jvm"):
            raise MiddlewareError(
                f"unknown runtime {self.runtime!r} (want 'native'/'jvm')")
        if self.ms_per_byte is not None:
            check_cost("ms_per_byte", self.ms_per_byte)
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

    def build(self):
        """Materialize the :class:`~repro.cluster.cluster.Cluster`, its
        collectives priced on the resolved :class:`Topology`."""
        from ..cluster.cluster import make_cluster
        from ..cluster.network import DEFAULT_NETWORK
        from ..cluster.node import HOST_RUNTIMES
        from ..cluster.topology import Topology
        base = (DEFAULT_NETWORK if self.ms_per_byte is None
                else replace(DEFAULT_NETWORK, ms_per_byte=self.ms_per_byte))
        topology = Topology.from_spec(self.topology or f"flat:{self.nodes}",
                                      base=base)
        return make_cluster(self.nodes, gpus_per_node=self.gpus_per_node,
                            cpu_accels_per_node=self.cpus_per_node,
                            runtime=HOST_RUNTIMES[self.runtime],
                            topology=topology)

    def to_dict(self) -> dict:
        """The spec as plain JSON types, for trace recording."""
        return asdict(self)

    def with_(self, **changes) -> "ClusterSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
