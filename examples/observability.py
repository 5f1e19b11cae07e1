#!/usr/bin/env python
"""Observability: partition quality metrics and run telemetry.

Operating a GX-Plug deployment means answering two questions before and
after each job: *was the graph partitioned well?* (metrics) and *where
did the time go?* (telemetry).  This example scores three partitioning
strategies, runs the job on the best one, and exports the per-superstep
trace to JSON/CSV.
"""

import json
import tempfile
from pathlib import Path

from repro.api import (ClusterSpec, GXPlug, MultiSourceSSSP,
                       PowerGraphEngine, clustering_partition,
                       hash_partition, load_dataset)
from repro.bench import print_table
from repro.engines.trace import write_csv, write_json
from repro.graph import greedy_vertex_cut, partition_report


def main() -> None:
    graph = load_dataset("wrn")
    print(f"Planning a 4-node deployment for {graph}\n")

    # --- 1. score the partitioners --------------------------------------
    candidates = {
        "hash": hash_partition(graph, 4),
        "clustering": clustering_partition(graph, 4, seed=3),
        "greedy-vertex-cut": greedy_vertex_cut(graph, 4),
    }
    rows = []
    for name, pgraph in candidates.items():
        report = partition_report(pgraph)
        rows.append((name,
                     f"{report['edge_cut_fraction']:.1%}",
                     f"{report['replication_factor']:.2f}",
                     f"{report['load_imbalance']:.2f}",
                     f"{report['skip_potential']:.1%}"))
    print_table(["strategy", "edge cut", "replication", "imbalance",
                 "skip potential"], rows, title="partition quality")

    best = max(candidates,
               key=lambda n: partition_report(candidates[n])
               ["skip_potential"])
    print(f"best skip potential: {best}\n")

    # --- 2. run on the best partitioning ---------------------------------
    cluster = ClusterSpec(nodes=4, gpus_per_node=1).build()
    plug = GXPlug(cluster)
    engine = PowerGraphEngine(candidates[best], cluster, middleware=plug)
    result = engine.run(MultiSourceSSSP(sources=(0, 1, 2, 3)))
    print(result.summary())
    print(f"computation iterations: {result.computation_iterations} "
          f"(combined into {result.iterations} supersteps)")

    # --- 3. export the trace ------------------------------------------------
    out = Path(tempfile.mkdtemp(prefix="gxplug-trace-"))
    write_json(result, out / "run.json")
    write_csv(result, out / "run.csv")
    doc = json.loads((out / "run.json").read_text())
    heaviest = max(doc["iterations"], key=lambda r: r["total_ms"])
    print(f"\ntrace written to {out}")
    print(f"heaviest superstep: #{heaviest['iteration']} "
          f"({heaviest['total_ms']:.1f} ms, "
          f"{heaviest['active_edges']} active edges, "
          f"{heaviest['local_iterations']} local iterations)")


if __name__ == "__main__":
    main()
