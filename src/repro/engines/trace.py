"""Run telemetry: export engine results as structured records.

Turns a :class:`~repro.engines.base.RunResult` into plain dict/CSV/JSON
records — one per superstep — so runs can be logged, plotted, or diffed
outside Python.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

from .base import RunResult

#: the per-superstep record's keys, in order
FIELDS = [
    "iteration", "active_edges", "compute_ms", "apply_ms", "sync_ms",
    "total_ms", "skipped", "local_iterations", "changed_vertices",
    "uploads", "cache_hits", "cache_misses", "cache_evictions",
    "cache_writebacks",
    "faults_injected", "retries", "recoveries", "checkpoint_ms",
    "retransmits", "dup_drops", "net_wasted_ms",
]
#: the run-level record's keys, in order
_SUMMARY = (
    "engine", "algorithm", "iterations", "computation_iterations",
    "skipped_iterations", "converged", "total_ms", "setup_ms",
    "middleware_ratio", "rollbacks", "wasted_ms", "degraded_nodes",
    "rebalance_events", "rebalance_ms", "retransmits", "dup_drops",
    "net_wasted_ms", "straggler_verdicts", "speculative_wins",
    "speculative_losses", "speculative_wasted_ms", "coeff_updates",
    "online_rebalances", "link_verdicts", "link_slow_ms",
    "cache_evictions", "cache_writebacks", "sched_events",
    "sched_batches", "sched_heap_peak", "breakdown",
)
#: record keys whose attribute has another name
_ATTRIBUTE = {"iteration": "index", "engine": "engine_name",
              "algorithm": "algorithm_name"}


def _plain(value):
    """``value`` as a record holds it: floats rounded to 6 places,
    lists copied, dicts sorted by key."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value


def _record(obj, keys) -> Dict:
    return {key: _plain(getattr(obj, _ATTRIBUTE.get(key, key)))
            for key in keys}


def iteration_records(result: RunResult) -> List[Dict]:
    """One plain dict per superstep, in order."""
    return [_record(s, FIELDS) for s in result.stats]


def run_summary(result: RunResult) -> Dict:
    """The run-level header record."""
    return _record(result, _SUMMARY)


def write_csv(result: RunResult, path) -> None:
    """Write the per-iteration records as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(iteration_records(result))


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
