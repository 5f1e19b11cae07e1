"""Serving-layer experiments: the multi-tenant soak, the crash and wire
chaos soaks, and the streaming-mutation soak.

``repro.serve.service`` imports ``repro.bench.trace``, so every
``repro.serve`` import here is deferred into the runner that needs it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...algorithms import ALGORITHMS, PAPER_WORKLOADS
from ...core import FULL, RESILIENT, ClusterSpec
from ...engines import PowerGraphEngine
from ...fault import FaultPlan
from ...graph import load_dataset
from .common import Figure, _run


# ---------------------------------------------------------------------------
# Serving soak (multi-tenant GraphService vs one-shot deploys)
# ---------------------------------------------------------------------------

#: The serving soak's per-tenant query mix: (algorithm, params).
SERVE_MIX = (
    ("pagerank", {}),
    ("cc", {}),
    ("sssp-bf", PAPER_WORKLOADS["sssp-bf"][0]),
)


def run_serve_soak(dataset: str = "wrn", num_nodes: int = 2,
                   tenants: int = 3, waves: int = 2,
                   max_iter: int = 8,
                   crash: bool = True) -> List[Tuple]:
    """Rows: (variant, jobs, done, failed, cache_hits, hit_rate,
    coalesced, p50_ms, p99_ms, makespan_ms, cached_speedup, isolated).

    ``tenants`` tenants each submit their :data:`SERVE_MIX` query
    (tenant ``i`` gets ``SERVE_MIX[i % 3]``) once per wave; waves are
    submitted back to back, so wave >= 2 repeats are answered from the
    result cache.  Three variants:

    * ``serial`` — the pre-serving baseline: every query is a one-shot
      deploy (reload + repartition + full engine run), latencies are
      cumulative because jobs queue behind each other;
    * ``served`` — one :class:`~repro.serve.GraphService` sharing the
      graph and partitions, fair-share time slicing, result cache on;
    * ``served+crash`` — same, plus a chaos tenant whose job carries a
      repeated daemon-crash fault plan on the resilient stack.

    ``cached_speedup`` is the worst repeated-query speedup observed:
    min over cached jobs of (that query's recompute cost / the cached
    job's consumed service time).  ``isolated`` is True iff every
    non-chaos job's values are byte-identical to a solo one-shot run
    of the same query — the multi-tenant isolation invariant, asserted
    under injected faults by the suite.
    """
    from ...fault import CRASH
    from ...serve import GraphService, JobSpec

    graph = load_dataset(dataset)
    spec = ClusterSpec(nodes=num_nodes, gpus_per_node=1)

    def query_for(tenant: int):
        return SERVE_MIX[tenant % len(SERVE_MIX)]

    # solo one-shot baselines, one per distinct query in the mix
    solo = {}
    for algorithm, params in SERVE_MIX[:max(tenants, 1)]:
        cluster = spec.build()
        result = _run(PowerGraphEngine, graph, cluster,
                      ALGORITHMS[algorithm](**params), max_iter,
                      config=FULL)
        solo[algorithm] = result

    rows = []

    # -- serial: every job a fresh deploy, latencies queue up -----------------------
    latencies, clock = [], 0.0
    total_jobs = tenants * waves
    for _ in range(waves):
        for tenant in range(tenants):
            algorithm, params = query_for(tenant)
            cluster = spec.build()
            result = _run(PowerGraphEngine, graph, cluster,
                          ALGORITHMS[algorithm](**params),
                          max_iter, config=FULL)
            clock += result.total_ms
            latencies.append(clock)
    arr = np.asarray(latencies)
    rows.append(("serial", total_jobs, total_jobs, 0, 0, 0.0, 0,
                 float(np.percentile(arr, 50)),
                 float(np.percentile(arr, 99)), clock, 1.0, True))

    # -- served (and served+crash) ------------------------------------------------
    variants = [("served", False)]
    if crash:
        variants.append(("served+crash", True))
    for name, with_crash in variants:
        svc = GraphService(spec, cache_entries=32)
        svc.load_graph(dataset, graph)
        jobs, chaos_jobs = [], []
        for wave in range(waves):
            submitted = []
            for tenant in range(tenants):
                algorithm, params = query_for(tenant)
                submitted.append(svc.submit(JobSpec(
                    graph=dataset, algorithm=algorithm, params=params,
                    tenant=f"t{tenant}", max_iterations=max_iter)))
            if with_crash and wave == 0:
                plan = FaultPlan.single(CRASH, superstep=1, node_id=0,
                                        repeat=3)
                chaos_jobs.append(svc.submit(JobSpec(
                    graph=dataset, algorithm="pagerank",
                    tenant="chaos", max_iterations=max_iter,
                    runtime=RESILIENT.with_(fault_plan=plan),
                    use_cache=False)))
            svc.run()
            jobs.extend(submitted)
        done = sum(j.state == "done" for j in jobs)
        failed = sum(j.state == "failed" for j in jobs)
        hits = sum(j.from_cache for j in jobs)
        isolated = all(
            np.array_equal(j.values, solo[j.spec.algorithm].values)
            for j in jobs if j.state == "done")
        speedups = [solo[j.spec.algorithm].total_ms / j.consumed_ms
                    for j in jobs if j.from_cache]
        arr = np.asarray([j.latency_ms for j in jobs
                          if j.state == "done"])
        rows.append((name, len(jobs), done, failed, hits,
                     svc.cache.hit_rate, svc.metrics()["coalesced"],
                     float(np.percentile(arr, 50)),
                     float(np.percentile(arr, 99)), svc.now_ms,
                     min(speedups) if speedups else 1.0, isolated))
    return rows


# ---------------------------------------------------------------------------
# Serve chaos: crash at random points, recover, demand bit-identity
# ---------------------------------------------------------------------------

def run_serve_chaos(dataset: str = "wrn", num_nodes: int = 2,
                    seeds: Sequence[int] = (11, 23, 47),
                    max_iter: int = 10,
                    journal_dir: Optional[str] = None) -> List[Tuple]:
    """Rows: (seed, killed_at, jobs, pre_crash_done, resumed,
    identical, steps_saved, replay_noop).

    The crash-safety soak.  Per seed: a journaled no-crash baseline
    serves the :data:`SERVE_MIX`; then an identical journaled run is
    killed after a seeded-random number of scheduling rounds (the
    process state is simply dropped — nothing is flushed beyond what
    the write-ahead journal already holds); then
    :meth:`~repro.serve.GraphService.recover` rebuilds the service
    from the journal and drives it to completion.

    * ``identical`` — every job's final values are byte-identical to
      the no-crash baseline's (finished jobs restored from their
      journaled sidecars, in-flight jobs resumed from checkpoints and
      re-run);
    * ``steps_saved`` — supersteps the checkpoint resumes avoided,
      summed over resumed jobs (each must recompute *strictly fewer*
      supersteps than its cold baseline run);
    * ``replay_noop`` — recovering the finished journal a second time
      re-queues nothing, preserves every terminal state, and appends
      not a single record.
    """
    import os
    import random
    import tempfile

    from ...serve import GraphService, JobSpec
    from ...serve.journal import read_journal

    graph = load_dataset(dataset)
    spec = ClusterSpec(nodes=num_nodes, gpus_per_node=1)
    base_dir = journal_dir or tempfile.mkdtemp(prefix="serve_chaos_")

    def submit_mix(svc):
        return [svc.submit(JobSpec(
            graph=dataset, algorithm=algorithm, params=params,
            tenant=f"t{tenant}", max_iterations=max_iter))
            for tenant, (algorithm, params) in enumerate(SERVE_MIX)]

    rows = []
    for seed in seeds:
        jdir = os.path.join(base_dir, f"seed{seed}")
        os.makedirs(jdir, exist_ok=True)

        # no-crash baseline, journaled too: journaling (and the forced
        # checkpoint interval that rides with it) must never move values
        base = GraphService(spec,
                            journal=os.path.join(jdir, "base.jsonl"))
        base.load_graph(dataset, graph)
        bjobs = submit_mix(base)
        base.run()
        base_vals = {j.job_id: j.values.copy() for j in bjobs}
        cold_steps = {j.job_id: len(j.result.stats) for j in bjobs}

        # the crash run: a seeded-random number of scheduling rounds,
        # then the process "dies" — the abandoned service is never
        # drained, so the journal ends mid-flight
        jpath = os.path.join(jdir, "crash.jsonl")
        svc = GraphService(spec, journal=jpath)
        svc.load_graph(dataset, graph)
        submit_mix(svc)
        kill_at = random.Random(seed).randrange(3, 15)
        killed_at = 0
        for _ in range(kill_at):
            if not svc.step():
                break
            killed_at += 1
        del svc

        rec = GraphService.recover(jpath, graphs={dataset: graph})
        resumed_ids = {j.job_id for j in rec.queue.jobs()
                       if j.resume_from is not None}
        pre_crash_done = len(bjobs) - rec.metrics()["recovered_jobs"]
        rec.run()

        identical = True
        steps_saved = 0
        for job_id, expect in base_vals.items():
            job = rec.job(job_id)
            if job.state != "done" or not np.array_equal(job.values,
                                                         expect):
                identical = False
            if job_id in resumed_ids and job.result is not None:
                recomputed = len(job.result.stats)
                if recomputed >= cold_steps[job_id]:
                    identical = False  # resume bought nothing: a bug
                steps_saved += cold_steps[job_id] - recomputed

        before = len(read_journal(jpath))
        rec2 = GraphService.recover(jpath, graphs={dataset: graph})
        replay_noop = (rec2.metrics()["recovered_jobs"] == 0
                       and len(read_journal(jpath)) == before
                       and all(rec2.job(i).state == "done"
                               for i in base_vals))

        rows.append((seed, killed_at, len(bjobs), pre_crash_done,
                     len(resumed_ids), identical, steps_saved,
                     replay_noop))
    return rows


# ---------------------------------------------------------------------------
# Wire chaos: kill the socket server mid-stream, clients reconnect
# ---------------------------------------------------------------------------

def run_wire_chaos(dataset: str = "wrn", num_nodes: int = 2,
                   seeds: Sequence[int] = (5, 17, 29),
                   max_iter: int = 10, kills: int = 3,
                   journal_dir: Optional[str] = None) -> List[Tuple]:
    """Rows: (seed, kills, generations, jobs, resumed, deduped,
    reconnects, identical, exactly_once, strictly_fewer, steps_saved).

    The wire protocol's end-to-end robustness soak: everything a
    client observes must survive the server being killed out from
    under it.  Per seed:

    * a journaled **baseline** generation serves the
      :data:`SERVE_MIX` over a real socket, uninterrupted, and the
      client records every job's values as received over the wire;
    * then a fresh journal is stream-served with the server **killed**
      after a seeded number of scheduling rounds, ``kills`` times
      (abrupt: no drain, no goodbye — the journal ends mid-flight);
      after each kill the service is rebuilt with
      :meth:`~repro.serve.GraphService.recover`, a new server
      generation binds the *same* port, and the client reconnects and
      resubmits every job under its original idempotency key.

    Checks (one boolean each per row):

    * ``identical`` — every job's final wire-delivered values are
      bit-identical to the uninterrupted baseline's;
    * ``exactly_once`` — the journal holds exactly one ``submitted``
      record per idempotency key (resubmits deduped, never re-ran);
    * ``strictly_fewer`` — every checkpoint-resumed job recomputed
      strictly fewer supersteps than its cold baseline run
      (``steps_saved`` totals the supersteps the resumes avoided).
    """
    import os
    import random
    import tempfile
    import time as _time

    from ...errors import WireError
    from ...serve import GraphService, JobSpec
    from ...serve.client import GraphClient
    from ...serve.journal import read_journal
    from ...serve.wire import GraphServiceServer

    graph = load_dataset(dataset)
    spec = ClusterSpec(nodes=num_nodes, gpus_per_node=1)
    base_dir = journal_dir or tempfile.mkdtemp(prefix="wire_chaos_")

    mix = [(f"k{i}", algorithm, params)
           for i, (algorithm, params) in enumerate(SERVE_MIX)]

    def spec_for(key, algorithm, params):
        return JobSpec(graph=dataset, algorithm=algorithm,
                       params=params, tenant=f"t:{key}",
                       max_iterations=max_iter)

    def submit_all(client, ids=None):
        """(Re)submit the whole mix under stable keys: key -> job id.

        Tolerates the server dying mid-stream (the soak's kills land
        wherever they land, including between two submits): already-
        acknowledged ids are kept and the missing keys are simply
        resubmitted by the next generation's call — idempotency keys
        make the replay safe either way.
        """
        ids = dict(ids or {})
        for key, algorithm, params in mix:
            try:
                resp = client.submit(spec_for(key, algorithm, params),
                                     idempotency_key=key)
            except (WireError, OSError):
                break  # server died; the next generation resubmits
            ids[key] = resp["job_id"]
        return ids

    def wait_all(client, ids):
        vals = {}
        for key, job_id in ids.items():
            doc = client.wait(job_id, timeout_s=60)
            if doc["state"] != "done":
                raise WireError(f"job for {key} ended {doc['state']!r}")
            vals[key] = client.result_values(job_id)
        return vals

    rows = []
    for seed in seeds:
        jdir = os.path.join(base_dir, f"seed{seed}")
        os.makedirs(jdir, exist_ok=True)
        rng = random.Random(seed)

        # -- baseline: one uninterrupted socket-served generation ---------------
        base_svc = GraphService(spec,
                                journal=os.path.join(jdir, "base.jsonl"))
        base_svc.load_graph(dataset, graph)
        base_server = GraphServiceServer(base_svc)
        base_thread = base_server.serve_in_thread()
        host, port = base_server.address
        with GraphClient(host, port, client_name="wire-chaos-base",
                         jitter_seed=seed) as client:
            base_ids = submit_all(client)
            base_vals = wait_all(client, base_ids)
            cold_steps = {key: len(base_svc.job(job_id).result.stats)
                          for key, job_id in base_ids.items()}
            client.drain()
        base_thread.join(timeout=30)

        # -- chaos: same mix, server killed `kills` times mid-stream ------------
        jpath = os.path.join(jdir, "crash.jsonl")
        kill_after = [rng.randrange(3, 9) for _ in range(kills)]
        svc = GraphService(spec, journal=jpath)
        svc.load_graph(dataset, graph)
        server = GraphServiceServer(svc, host, 0,
                                    crash_after_steps=kill_after[0])
        thread = server.serve_in_thread()
        chaos_port = server.address[1]

        client = GraphClient(host, chaos_port,
                             client_name="wire-chaos", jitter_seed=seed,
                             connect_attempts=8, backoff_base_s=0.01,
                             timeout_s=10.0)
        resumed_keys = set()      # keys checkpoint-resumed at least once
        outstanding = set()       # resumed, not yet finished+accounted
        strictly_fewer = True
        steps_saved = 0
        deduped = 0
        generations = 1

        def settle_resumes(service, ids):
            """Credit resumes that finished in ``service``'s lifetime.

            A resumed job's ``result.stats`` covers only the slices it
            recomputed after its checkpoint, so its length against the
            cold baseline is exactly the resume's savings.  Settled
            keys leave ``outstanding`` so later generations (where the
            job is a sidecar-restored terminal) never recount them.
            """
            nonlocal steps_saved, strictly_fewer
            for key in sorted(outstanding):
                job = service._jobs.get(ids.get(key))
                if job is None or job.state != "done" \
                        or job.result is None or job.from_cache:
                    continue
                recomputed = len(job.result.stats)
                steps_saved += cold_steps[key] - recomputed
                if recomputed >= cold_steps[key]:
                    strictly_fewer = False
                outstanding.discard(key)

        def await_kill(server, thread):
            """Wait for the seeded kill; if the mix finished before
            the threshold, the idle server would never die — kill it
            cold (recovery then restores only terminals, also valid)."""
            deadline = _time.monotonic() + 60
            while thread.is_alive() and _time.monotonic() < deadline:
                thread.join(timeout=0.02)
                if thread.is_alive() and not server._service_busy():
                    server.crash()
            thread.join(timeout=30)

        try:
            ids = submit_all(client)

            for gen in range(kills):
                await_kill(server, thread)
                settle_resumes(svc, ids)

                # next generation: recover from the torn journal and
                # rebind the same port; the client reconnects into it
                id_to_key = {job_id: key for key, job_id in ids.items()}
                svc = GraphService.recover(jpath,
                                           graphs={dataset: graph})
                resumed_now = {
                    id_to_key[j.job_id] for j in svc.queue.jobs()
                    if j.resume_from is not None
                    and j.job_id in id_to_key}
                resumed_keys |= resumed_now
                outstanding |= resumed_now
                server = GraphServiceServer(
                    svc, host, chaos_port,
                    crash_after_steps=(kill_after[gen + 1]
                                       if gen + 1 < kills else None))
                thread = server.serve_in_thread()
                generations += 1

                before = dict(ids)
                ids = submit_all(client, ids)
                deduped += sum(ids[key] == before[key]
                               for key in ids if key in before)

            final_vals = wait_all(client, ids)
            settle_resumes(svc, ids)
            client.drain()
            thread.join(timeout=30)
        finally:
            client.close()

        identical = all(key in final_vals
                        and np.array_equal(final_vals[key],
                                           base_vals[key])
                        for key in base_vals)
        submitted_by_key: Dict[int, str] = {}
        submits = 0
        for doc in read_journal(jpath):
            if doc.get("rec") == "submitted":
                submits += 1
            if doc.get("rec") == "idempotency":
                submitted_by_key[int(doc["job_id"])] = str(doc["key"])
        exactly_once = (submits == len(mix)
                        and len(set(ids.values())) == len(mix)
                        and all(submitted_by_key.get(job_id) == key
                                for key, job_id in ids.items()))

        rows.append((seed, kills, generations, len(mix),
                     len(resumed_keys), deduped,
                     client.client_stats()["reconnects"],
                     identical, exactly_once, strictly_fewer,
                     steps_saved))
    return rows


# ---------------------------------------------------------------------------
# Mutation soak: streaming churn + incremental recompute vs cold restart
# ---------------------------------------------------------------------------

def _two_cycles(big: int, small: int) -> "Graph":
    """Two disjoint directed cycles (0..big-1 and big..big+small-1)."""
    from ...graph import Graph
    src = np.concatenate([np.arange(big), big + np.arange(small)])
    dst = np.concatenate([(np.arange(big) + 1) % big,
                          big + (np.arange(small) + 1) % small])
    return Graph.from_edges(big + small, src, dst,
                            name=f"cycles-{big}+{small}")


def run_mutation_soak(num_nodes: int = 2,
                      scenarios: Optional[Sequence[str]] = None,
                      journal_dir: Optional[str] = None) -> List[Tuple]:
    """Rows: (algorithm, churn, cold_steps, warm_steps, step_ratio,
    cold_ms, warm_ms, ms_ratio, warm, identical, replay_noop).

    The streaming-mutation soak: converge a query, mutate ~1% of the
    graph through :meth:`~repro.serve.GraphService.mutate`, resubmit
    the same query, and compare the incremental re-convergence against
    a cold restart of a fresh (equally journaled) service on the
    mutated graph.  Three warm scenarios — one per ``incremental``
    policy worth exercising — plus one deliberate fallback:

    * ``pagerank`` — 1% of edges re-weighted.  PageRank's messages
      weigh by out-degree, not edge weight, so the old fixpoint *is*
      the new one; the warm run re-verifies it in one superstep where
      the cold run contracts from uniform all over again
      (``incremental = "fixpoint"`` re-seeds every vertex).
    * ``cc`` — edge additions splice a small component onto a large
      one.  The warm frontier is the handful of touched vertices and
      re-convergence is bounded by the *small* component's diameter;
      cold propagation re-walks the large one.
    * ``sssp-bf`` — heavyweight edge additions that improve almost no
      distance: the warm frontier dies out in a few relaxations.
    * ``cc-shrink`` — the fallback row: the batch *removes* an edge,
      min-label propagation cannot retract monotonically, so the
      planner refuses the warm start and the service silently runs
      cold.  ``warm`` must be False and the values still identical.

    Every row asserts three things downstream: the warm run beats the
    cold restart ≥5x in supersteps *and* simulated ms (fallback row
    exempt), final values are bit-identical to the cold run on the
    mutated graph, and recovering the journal replays the mutation
    exactly once (version preserved, resubmitted batch dedupes,
    nothing re-queued).
    """
    import os
    import tempfile

    from ...graph import road_network, uniform_random
    from ...graph.mutations import MutationBatch
    from ...serve import GraphService, JobSpec
    from ...serve.journal import read_journal

    spec = ClusterSpec(nodes=num_nodes, gpus_per_node=1)
    base_dir = journal_dir or tempfile.mkdtemp(prefix="mutation_soak_")

    def reweight_batch(graph, fraction=0.01, seed=11):
        rng = np.random.default_rng(seed)
        m = max(1, int(graph.num_edges * fraction))
        eids = rng.choice(graph.num_edges, size=m, replace=False)
        # strictly *lower* weights: keeps the batch monotone-safe, and
        # PageRank ignores weights anyway
        return MutationBatch(
            update_src=graph.src[eids], update_dst=graph.dst[eids],
            update_weights=graph.weights[eids] * 0.5)

    def splice_batch(graph, big=600, seed=13):
        # connect the small trailing cycle into the big one, both ways
        return MutationBatch(
            add_src=np.asarray([0, big], dtype=np.int64),
            add_dst=np.asarray([big, 0], dtype=np.int64),
            add_weights=np.asarray([1.0, 1.0]))

    def heavy_edges_batch(graph, count=12, seed=17):
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        src = rng.integers(0, n, size=count)
        dst = (src + 1 + rng.integers(0, n - 1, size=count)) % n
        heavy = np.full(count, 1e6)   # improves (almost) nothing
        return MutationBatch(add_src=src, add_dst=dst,
                             add_weights=heavy)

    def drop_edge_batch(graph):
        return MutationBatch(
            remove_src=graph.src[:1].copy(),
            remove_dst=graph.dst[:1].copy())

    catalog = {
        "pagerank": dict(
            algorithm="pagerank", params={"tolerance": 0.0},
            max_iter=2000, churn="reweight 1% of edges",
            graph=lambda: uniform_random(3000, 24000, seed=7),
            batch=reweight_batch, expect_warm=True),
        "cc": dict(
            algorithm="cc", params={}, max_iter=2000,
            churn="splice small component into big",
            graph=lambda: _two_cycles(600, 12),
            batch=splice_batch, expect_warm=True),
        "sssp-bf": dict(
            algorithm="sssp-bf", params={"sources": (0, 1)},
            max_iter=2000, churn="add 12 heavyweight edges",
            graph=lambda: road_network(40, 40, seed=3),
            batch=heavy_edges_batch, expect_warm=True),
        "cc-shrink": dict(
            algorithm="cc", params={}, max_iter=2000,
            churn="remove an edge (warm start refused)",
            graph=lambda: _two_cycles(120, 8),
            batch=drop_edge_batch, expect_warm=False),
    }
    chosen = scenarios if scenarios is not None else tuple(catalog)

    rows = []
    for name in chosen:
        sc = catalog[name]
        graph = sc["graph"]()
        key = f"g-{name}"
        jdir = os.path.join(base_dir, name)
        os.makedirs(jdir, exist_ok=True)
        jspec = dict(graph=key, algorithm=sc["algorithm"],
                     params=sc["params"], tenant="t0",
                     max_iterations=sc["max_iter"])

        # warm side: converge once, mutate, resubmit the same query
        jpath = os.path.join(jdir, "warm.jsonl")
        svc = GraphService(spec, journal=jpath)
        svc.load_graph(key, graph)
        svc.submit(JobSpec(**jspec))
        svc.run()
        batch = sc["batch"](graph)
        summary = svc.mutate(key, batch)
        warm_job = svc.submit(JobSpec(**jspec))
        svc.run()
        warm_steps = len(warm_job.result.stats)
        warm_ms = warm_job.result.total_ms

        # cold side: a fresh, equally journaled service loads the
        # already-mutated graph and computes from scratch
        mutated = svc.store.get(key).graph
        cold = GraphService(
            spec, journal=os.path.join(jdir, "cold.jsonl"))
        cold.load_graph(key, mutated)
        cold_job = cold.submit(JobSpec(**jspec))
        cold.run()
        cold_steps = len(cold_job.result.stats)
        cold_ms = cold_job.result.total_ms

        identical = np.array_equal(warm_job.values, cold_job.values)

        # crash + recover the warm journal: the mutation replays
        # exactly once (version preserved), the resubmitted batch
        # dedupes, and nothing is re-queued or appended
        before = len(read_journal(jpath))
        rec = GraphService.recover(jpath, graphs={key: graph})
        redo = rec.mutate(key, batch,
                          idempotency_key=summary["batch_id"])
        replay_noop = (
            rec.store.get(key).version == summary["version"]
            and redo["deduped"]
            and rec.metrics()["recovered_jobs"] == 0
            and len(read_journal(jpath)) == before)

        step_ratio = cold_steps / max(warm_steps, 1)
        ms_ratio = cold_ms / max(warm_ms, 1e-9)
        rows.append((sc["algorithm"], sc["churn"], cold_steps,
                     warm_steps, round(step_ratio, 2),
                     round(cold_ms, 3), round(warm_ms, 3),
                     round(ms_ratio, 2), warm_job.warm_started,
                     identical, replay_noop))
    return rows


FIGURES = (
    Figure("serve_soak", run_serve_soak,
           ("variant", "jobs", "done", "failed", "cache hits",
            "hit rate", "coalesced", "p50 ms", "p99 ms", "makespan ms",
            "cached speedup", "isolated"),
           "serve_soak", dict(waves=2, max_iter=6)),
    Figure("serve_chaos", run_serve_chaos,
           ("seed", "killed at", "jobs", "pre-crash done", "resumed",
            "identical", "steps saved", "replay no-op"),
           "serve_chaos", dict(seeds=(11, 23), max_iter=6)),
    Figure("wire_chaos", run_wire_chaos,
           ("seed", "kills", "generations", "jobs", "resumed",
            "deduped", "reconnects", "identical", "exactly once",
            "strictly fewer", "steps saved"),
           "wire_chaos", dict(seeds=(5, 17), max_iter=6)),
    Figure("mutation_soak", run_mutation_soak,
           ("algorithm", "churn", "cold steps", "warm steps",
            "step ratio", "cold ms", "warm ms", "ms ratio", "warm",
            "identical", "replay no-op"),
           "mutation_soak", {}),
)

__all__ = [fig.run.__name__ for fig in FIGURES]
