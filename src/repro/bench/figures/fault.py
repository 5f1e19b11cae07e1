"""Fault-tolerance experiments: the fault-free overhead of the resilient
stack and the fault / straggler / topology soaks.

Each runner asserts its own value invariants (a fault never moves a
result); the ``benchmarks/`` suite asserts the cost shapes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...algorithms import PageRank
from ...cluster import NATIVE_RUNTIME, Topology, make_cluster
from ...core import (FULL, NETWORK_RESILIENT, RESILIENT, ClusterSpec,
                     StragglerConfig)
from ...engines import PowerGraphEngine
from ...fault import (LINK_SLOW, NET_DELAY, NET_DROP, NET_DUP, SLOWDOWN,
                      SYNC_FAIL, FaultPlan)
from ...graph import load_dataset
from .common import Figure, _run, algorithm_factories


# ---------------------------------------------------------------------------
# Fault-tolerance overhead (fault-free runs, checkpoints on)
# ---------------------------------------------------------------------------

def run_fault_overhead(dataset: str = "orkut",
                       num_nodes: int = 4) -> List[Tuple]:
    """Rows: (algorithm, variant, total_ms, overhead).

    The Fig. 8 GPU+PowerGraph configuration run fault-free twice: with
    the fault-tolerance layer off (``FULL``) and on (``RESILIENT``:
    checkpoints every 2 supersteps, host degradation armed).  The
    enabled path's budget is < 10% overhead — a run without a stall
    plan arms no heartbeat monitor, so the cost is just the periodic
    vertex-table snapshots.
    """
    graph = load_dataset(dataset)
    rows = []
    for alg_name, (factory, cap) in algorithm_factories().items():
        cluster = make_cluster(num_nodes, gpus_per_node=1,
                               runtime=NATIVE_RUNTIME)
        base = _run(PowerGraphEngine, graph, cluster, factory(), cap,
                    config=FULL)
        ft_cluster = make_cluster(num_nodes, gpus_per_node=1,
                                  runtime=NATIVE_RUNTIME)
        ft = _run(PowerGraphEngine, graph, ft_cluster, factory(), cap,
                  config=RESILIENT)
        assert np.allclose(base.values, ft.values, equal_nan=True)
        overhead = (ft.total_ms / base.total_ms - 1.0
                    if base.total_ms else 0.0)
        rows.append((alg_name, "full", base.total_ms, 0.0))
        rows.append((alg_name, "resilient", ft.total_ms, overhead))
    return rows


# ---------------------------------------------------------------------------
# Fault soak: seeded random campaigns at increasing rates
# ---------------------------------------------------------------------------

#: The recoverable network kinds the soak sweeps over.  ``node_partition``
#: is excluded on purpose: it permanently degrades a node, so its cost is
#: a step function (rollback + rebalance + slower tail), not the
#: per-fault recovery overhead whose linear growth the soak measures.
SOAK_KINDS = (NET_DROP, NET_DELAY, NET_DUP, SYNC_FAIL)


def run_fault_soak(dataset: str = "wrn", num_nodes: int = 2,
                   seed: int = 17,
                   rates: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
                   kinds: Sequence[str] = SOAK_KINDS,
                   max_iter: int = 10,
                   topology: Optional[str] = None) -> List[Tuple]:
    """Rows: (rate, injected, total_ms, overhead_ms, retransmits,
    net_wasted_ms, rollbacks).

    One :meth:`FaultPlan.random` campaign per rate, all from the same
    seed, on the NETWORK_RESILIENT stack.  Results must match the
    rate-0 run exactly; the recovery overhead (total beyond the rate-0
    cost) is reported per campaign so the suite can assert it scales
    linearly with the number of injected faults.

    ``topology`` — optional rack spec (``"rack:RxN"``); link-level
    fault kinds (``link_slow`` / ``link_flaky``) need one, since a flat
    network has no concrete links to inflate.
    """
    graph = load_dataset(dataset)
    baseline = None
    rows = []
    for rate in rates:
        plan = FaultPlan.random(seed, supersteps=max_iter,
                                num_nodes=num_nodes, rate=rate,
                                kinds=tuple(kinds))
        cluster = ClusterSpec(nodes=num_nodes, gpus_per_node=1,
                              runtime="native",
                              topology=topology).build()
        result = _run(PowerGraphEngine, graph, cluster, PageRank(),
                      max_iter,
                      config=NETWORK_RESILIENT.with_(fault_plan=plan))
        if baseline is None:
            baseline = result
        assert np.allclose(result.values, baseline.values, atol=1e-9)
        injected = sum(s.faults_injected for s in result.stats)
        rows.append((rate, injected, result.total_ms,
                     result.total_ms - baseline.total_ms,
                     result.retransmits, result.net_wasted_ms,
                     result.rollbacks))
    return rows


def run_straggler_soak(dataset: str = "wrn", num_nodes: int = 2,
                       gpus_per_node: int = 2, factor: float = 4.0,
                       passes: int = 6,
                       max_iter: int = 8) -> List[Tuple]:
    """Rows: (variant, total_ms, lost_ms, verdicts, speculation,
    coeff_updates, online_rebalances).

    Gray-failure soak: PageRank on the RESILIENT stack, clean and with
    one daemon slowed ``factor``x for ``passes`` passes, each with the
    gray responses off (no detection) and on (detection + speculative
    re-execution + online Lemma-2 re-estimation).  Invariants asserted
    here, shape asserted by the suite:

    * detection alone is free — the clean on/off pair is bit-identical
      in values *and* simulated time;
    * the slowdown never corrupts values — detect-off matches clean
      bit-for-bit, detect-on to 1e-9 (the online repartition regroups
      floating-point merges, exactly like degradation rebalancing).
    """
    graph = load_dataset(dataset)
    plan = FaultPlan.single(SLOWDOWN, 1, node_id=0, daemon_index=0,
                            factor=factor, passes=passes)

    def one(fault_plan, scfg):
        cluster = make_cluster(num_nodes, gpus_per_node=gpus_per_node,
                               runtime=NATIVE_RUNTIME)
        config = RESILIENT.with_(fault_plan=fault_plan, straggler=scfg)
        return _run(PowerGraphEngine, graph, cluster, PageRank(),
                    max_iter, config=config)

    detect_off = StragglerConfig()
    detect_on = StragglerConfig(enabled=True, reestimate=True)
    clean_off = one(None, detect_off)
    clean_on = one(None, detect_on)
    slow_off = one(plan, detect_off)
    slow_on = one(plan, detect_on)

    assert np.array_equal(clean_on.values, clean_off.values)
    assert clean_on.total_ms == clean_off.total_ms
    assert np.array_equal(slow_off.values, clean_off.values)
    assert np.allclose(slow_on.values, clean_off.values, atol=1e-9)

    base = clean_off.total_ms
    rows = []
    for label, res in (("clean/detect-off", clean_off),
                       ("clean/detect-on", clean_on),
                       ("slowdown/detect-off", slow_off),
                       ("slowdown/detect-on", slow_on)):
        rows.append((label, res.total_ms, res.total_ms - base,
                     res.straggler_verdicts,
                     f"{res.speculative_wins}W/"
                     f"{res.speculative_losses}L",
                     res.coeff_updates, res.online_rebalances))
    return rows


def run_topology_soak(dataset: str = "wrn", topology: str = "rack:2x1",
                      factor: float = 4.0, passes: int = 60,
                      ms_per_byte: float = 2e-4,
                      max_iter: int = 12) -> List[Tuple]:
    """Rows: (variant, total_ms, lost_ms, link_verdicts, link_slow_ms,
    coeff_updates, online_rebalances).

    Link gray-failure soak: PageRank over a two-rack topology whose
    cross-rack uplink is inflated ``factor``x for ``passes`` collectives
    (a congested spine: fragments arrive late, values never corrupt),
    with the topology-aware response off ("blind": detection only) and
    on ("aware": per-link detection + link-adjusted Lemma-2 online
    repartitioning).  The interconnect is deliberately thin
    (``ms_per_byte``) and synchronization strict (no skipping, no lazy
    trim): the regime where per-link bandwidth, not node compute,
    decides the makespan.  Invariants asserted here, the >=2x recovery
    floor asserted by the suite:

    * link detection alone is free — the clean blind/aware pair is
      bit-identical in values *and* simulated time;
    * a slow link never corrupts values — every variant matches the
      clean run to 1e-9 (repartitioning regroups floating-point
      merges, exactly like the straggler soak).
    """
    graph = load_dataset(dataset)
    racks = len(Topology.parse_spec(topology))
    num_nodes = sum(len(r) for r in Topology.parse_spec(topology))
    assert racks >= 2, "the soak needs a cross-rack uplink to inflate"
    # the slowed uplink: the last node's path crosses racks
    plan = FaultPlan.single(LINK_SLOW, 1, node_id=num_nodes - 1,
                            factor=factor, passes=passes)
    spec = ClusterSpec(nodes=num_nodes, gpus_per_node=1,
                       topology=topology, ms_per_byte=ms_per_byte)

    def one(fault_plan, aware):
        scfg = StragglerConfig(enabled=True, reestimate=aware)
        config = NETWORK_RESILIENT.with_(fault_plan=fault_plan,
                                         straggler=scfg,
                                         sync_skip=False,
                                         lazy_upload=False)
        return _run(PowerGraphEngine, graph, spec.build(), PageRank(),
                    max_iter, config=config)

    clean_blind = one(None, False)
    clean_aware = one(None, True)
    slow_blind = one(plan, False)
    slow_aware = one(plan, True)

    assert np.array_equal(clean_aware.values, clean_blind.values)
    assert clean_aware.total_ms == clean_blind.total_ms
    assert np.allclose(slow_blind.values, clean_blind.values, atol=1e-9)
    assert np.allclose(slow_aware.values, clean_blind.values, atol=1e-9)

    rows = []
    for label, res, base in (
            ("clean/topology-blind", clean_blind, clean_blind),
            ("clean/topology-aware", clean_aware, clean_aware),
            ("link-slow/topology-blind", slow_blind, clean_blind),
            ("link-slow/topology-aware", slow_aware, clean_aware)):
        rows.append((label, res.total_ms, res.total_ms - base.total_ms,
                     res.link_verdicts, res.link_slow_ms,
                     res.coeff_updates, res.online_rebalances))
    return rows


_SOAK_QUICK = dict(rates=(0.0, 0.2), max_iter=6)

FIGURES = (
    Figure("fault_overhead", run_fault_overhead,
           ("algorithm", "variant", "sim ms", "overhead"),
           "fault_overhead", dict(num_nodes=2)),
    Figure("fault_soak", run_fault_soak,
           ("rate", "injected", "total ms", "overhead ms",
            "retransmits", "net wasted ms", "rollbacks"),
           "fault_soak", _SOAK_QUICK,
           quick_variants={
               "fault_soak_topo": dict(_SOAK_QUICK, topology="rack:2x1")}),
    Figure("straggler_soak", run_straggler_soak,
           ("variant", "total ms", "lost ms", "verdicts",
            "speculation", "coeff updates", "online rebalances"),
           "straggler_soak", dict(passes=4, max_iter=6)),
    Figure("topology_soak", run_topology_soak,
           ("variant", "total ms", "lost ms", "link verdicts",
            "link slow ms", "coeff updates", "online rebalances"),
           "topology_soak", dict(passes=30, max_iter=8)),
)

__all__ = [fig.run.__name__ for fig in FIGURES]
