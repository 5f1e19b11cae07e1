"""The two batch workloads: a job grid run in-process, round after
round.

``batch-compute`` and ``batch-cachebound`` run the same code — set-up
builds the graph and both engines' partitions, then every job is
``spec.build()`` + ``GXPlug`` + ``engine_cls(pgraph, cluster, plug)`` +
``run()`` — and differ only in inputs: the cluster shape and whether
the vertex cache is bounded.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.api import ClusterSpec, GXPlug, MiddlewareConfig, RuntimeConfig
from repro.serve import JOB_ENGINES

from . import inputs, measure, reference
from .layers import merge_counters, run_result_counters
from .report import Outcome
from .spec import BATCH_SETUP_REPS
from .trace import Tracer

#: max-abs tolerance of capped PageRank against the numpy reference
PAGERANK_TOLERANCE = 1e-9


def run(workload: str, size: Dict[str, Any], seed: int,
        tracer: Optional[Tracer]) -> Outcome:
    cluster_spec = ClusterSpec(nodes=size["nodes"], gpus_per_node=1,
                               topology=size["topology"])
    if size["cache_fraction"] is None:
        config: Any = RuntimeConfig.preset("full")
    else:
        config = MiddlewareConfig(cache_capacity=max(
            1, int(size["cache_fraction"] * size["vertices"])))

    # set-up, repeated: generate the graph, build both partitions
    setup_s: List[float] = []
    for _ in range(BATCH_SETUP_REPS):
        t0 = perf_counter()
        graph = inputs.make_graph(seed, "g0", size["vertices"],
                                  size["edges"])
        jobs = inputs.batch_jobs(graph)
        partitions = {}
        for engine in inputs.ENGINES:
            cluster = cluster_spec.build()
            partitions[engine] = JOB_ENGINES[engine].build(
                graph, cluster, GXPlug(cluster, config)).pgraph
        setup_s.append(perf_counter() - t0)
    references = {q.qid: reference.compute(q, graph) for q in jobs}

    walls_ms: Dict[str, List[float]] = {q.qid: [] for q in jobs}
    published: Dict[str, float] = {}
    attempted = 0
    digests: Dict[str, str] = {}
    failed = 0
    round_s: List[float] = []
    sim_ms = 0.0
    started = perf_counter()
    for _ in range(size["rounds"]):
        round_started = perf_counter()
        for q in jobs:
            spec = q.spec()
            if tracer is not None:
                tracer.op = f"r{len(round_s)}.{q.qid}"
                root = tracer.begin("job")
            t0 = perf_counter()
            cluster = cluster_spec.build()
            plug = GXPlug(cluster, config)
            engine = JOB_ENGINES[q.engine](partitions[q.engine], cluster,
                                           plug)
            result = engine.run(spec.build_algorithm(),
                                max_iterations=q.cap)
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.end(root)
                tracer.op = None
            attempted += 1
            published = merge_counters(
                [published, run_result_counters([result])])
            sim_ms += result.total_ms
            if reference.matches(q, result.values, references[q.qid],
                                 PAGERANK_TOLERANCE):
                walls_ms[q.qid].append(wall * 1e3)
                if q.qid not in digests:
                    digests[q.qid] = inputs.digest(result.values)
            else:
                failed += 1
        round_s.append(perf_counter() - round_started)
    ended = perf_counter()

    timed = ended - started
    return Outcome(
        end_to_end={
            "setup_s": measure.median(setup_s),
            "jobs_per_s": (attempted - failed) / timed,
            "job_wall_ms": measure.typical(walls_ms),
            "sim_ms": sim_ms,
        },
        attempted=attempted, failed=failed, correct=failed == 0,
        windows=[(started, ended)],
        published=[published],
        span_lists=[(tracer.proc, tracer.spans)] if tracer else [],
        counts=[tracer.counts] if tracer else [],
        layer_values={"process.peak_rss_mb": measure.peak_rss_mb()},
        detail={
            "rounds": len(round_s), "jobs": attempted,
            "round_walls_s": round_s,
            "job_wall_samples": sum(len(w) for w in walls_ms.values()),
            "setup_samples_s": setup_s,
            "timed_wall_s": timed,
            # jobs_per_s times the schedule's constant edges per job
            "edges_per_s": published["engines.edges"] / timed,
            "schedule_sha256": inputs.digest(inputs.schedule_doc(
                jobs, workload=workload, size=size)),
            "values_sha256": digests,
        })
