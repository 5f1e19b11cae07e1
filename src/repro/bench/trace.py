"""Run telemetry: export engine results as structured records.

Turns a :class:`~repro.engines.base.RunResult` into plain dict/CSV/JSON
records — one per superstep — so runs can be logged, plotted, or diffed
outside Python.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

from ..engines.base import RunResult

FIELDS = [
    "iteration", "active_edges", "compute_ms", "apply_ms", "sync_ms",
    "total_ms", "skipped", "local_iterations", "changed_vertices",
    "uploads", "cache_hits", "cache_misses", "cache_evictions",
    "cache_writebacks",
    "faults_injected", "retries", "recoveries", "checkpoint_ms",
    "retransmits", "dup_drops", "net_wasted_ms",
]


def iteration_records(result: RunResult) -> List[Dict]:
    """One plain dict per superstep, in order."""
    records = []
    for s in result.stats:
        records.append({
            "iteration": s.index,
            "active_edges": s.active_edges,
            "compute_ms": round(s.compute_ms, 6),
            "apply_ms": round(s.apply_ms, 6),
            "sync_ms": round(s.sync_ms, 6),
            "total_ms": round(s.total_ms, 6),
            "skipped": s.skipped,
            "local_iterations": s.local_iterations,
            "changed_vertices": s.changed_vertices,
            "uploads": s.uploads,
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
            "cache_evictions": s.cache_evictions,
            "cache_writebacks": s.cache_writebacks,
            "faults_injected": s.faults_injected,
            "retries": s.retries,
            "recoveries": s.recoveries,
            "checkpoint_ms": round(s.checkpoint_ms, 6),
            "retransmits": s.retransmits,
            "dup_drops": s.dup_drops,
            "net_wasted_ms": round(s.net_wasted_ms, 6),
        })
    return records


def run_summary(result: RunResult) -> Dict:
    """The run-level header record."""
    return {
        "engine": result.engine_name,
        "algorithm": result.algorithm_name,
        "iterations": result.iterations,
        "computation_iterations": result.computation_iterations,
        "skipped_iterations": result.skipped_iterations,
        "converged": result.converged,
        "total_ms": round(result.total_ms, 6),
        "setup_ms": round(result.setup_ms, 6),
        "middleware_ratio": round(result.middleware_ratio, 6),
        "rollbacks": result.rollbacks,
        "wasted_ms": round(result.wasted_ms, 6),
        "degraded_nodes": list(result.degraded_nodes),
        "rebalance_events": result.rebalance_events,
        "rebalance_ms": round(result.rebalance_ms, 6),
        "retransmits": result.retransmits,
        "dup_drops": result.dup_drops,
        "net_wasted_ms": round(result.net_wasted_ms, 6),
        "straggler_verdicts": result.straggler_verdicts,
        "speculative_wins": result.speculative_wins,
        "speculative_losses": result.speculative_losses,
        "speculative_wasted_ms": round(result.speculative_wasted_ms, 6),
        "coeff_updates": result.coeff_updates,
        "online_rebalances": result.online_rebalances,
        "link_verdicts": result.link_verdicts,
        "link_slow_ms": round(result.link_slow_ms, 6),
        "cache_evictions": result.cache_evictions,
        "cache_writebacks": result.cache_writebacks,
        "sched_events": result.sched_events,
        "sched_batches": result.sched_batches,
        "sched_heap_peak": result.sched_heap_peak,
        "breakdown": {k: round(v, 6)
                      for k, v in sorted(result.breakdown.items())},
    }


def write_csv(result: RunResult, path) -> None:
    """Write the per-iteration records as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=FIELDS)
        writer.writeheader()
        for record in iteration_records(result):
            writer.writerow(record)


def write_json(result: RunResult, path, campaign: Dict = None,
               cluster_spec: Dict = None, job: Dict = None) -> None:
    """Write summary + per-iteration records as one JSON document.

    ``campaign`` — optional fault-campaign parameters (seed, rate,
    kinds) recorded verbatim under a ``"fault_campaign"`` key so a
    faulted run can be replayed exactly from its trace file.
    ``cluster_spec`` — the resolved cluster description (a
    :meth:`~repro.core.config.ClusterSpec.to_dict` dict) recorded
    verbatim under the summary's ``"cluster_spec"`` key so the trace
    pins the exact hardware/topology the numbers were simulated on.
    ``job`` — optional serving-layer job record (a
    :meth:`~repro.serve.job.Job.describe` dict) recorded verbatim
    under a top-level ``"job"`` key, making the trace per-job: which
    tenant asked, what they asked for, and how the job fared in the
    queue.
    """
    summary = run_summary(result)
    if cluster_spec is not None:
        summary["cluster_spec"] = cluster_spec
    doc = {"summary": summary,
           "iterations": iteration_records(result)}
    if job is not None:
        doc["job"] = job
    if campaign is not None:
        doc["fault_campaign"] = campaign
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
