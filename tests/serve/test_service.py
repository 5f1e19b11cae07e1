"""GraphService end to end: identity, coalescing, isolation, budgets."""

import json

import numpy as np
import pytest

from repro.algorithms import ConnectedComponents, PageRank
from repro.api import (
    ClusterSpec,
    GraphService,
    JobSpec,
    MiddlewareConfig,
    deploy,
)
from repro.engines import PowerGraphEngine
from repro.errors import AdmissionError, MiddlewareError, ServeError
from repro.fault import CRASH, FaultPlan
from repro.graph import load_dataset, rmat

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)


def solo_run(algorithm, max_iter=8):
    plug = deploy(SPEC)
    engine = PowerGraphEngine.build(load_dataset("wrn"), plug.cluster,
                                    middleware=plug)
    return engine.run(algorithm, max_iterations=max_iter)


@pytest.fixture
def svc():
    service = GraphService(SPEC, cache_entries=8)
    service.load_graph("g", dataset="wrn")
    return service


def pagerank_spec(**kw):
    kw.setdefault("graph", "g")
    kw.setdefault("algorithm", "pagerank")
    kw.setdefault("max_iterations", 8)
    return JobSpec(**kw)


def test_served_job_matches_solo_run_exactly(svc):
    job = svc.submit(pagerank_spec(tenant="alice"))
    svc.run()
    solo = solo_run(PageRank())
    assert job.state == "done"
    assert np.array_equal(job.values, solo.values)
    assert job.result.total_ms == solo.total_ms
    assert job.consumed_ms == solo.total_ms   # full cost charged
    assert job.fault_report.clean


@pytest.mark.parametrize("field,bad", [
    ("journal_checkpoint_interval", 1.5),
    ("journal_checkpoint_interval", -1),
    ("cache_entries", 2.5),
    ("daemon_budget", 2.5),
    ("max_running", True),
    ("max_queue_depth", 1.5),
    ("max_pending_per_tenant", True),
])
def test_service_counts_are_checked_at_construction(field, bad):
    """A bad count fails the constructor, not the first dispatch (a
    float checkpoint interval) or silently (a negative one gave
    journaled jobs no resume point)."""
    with pytest.raises(MiddlewareError, match=field):
        GraphService(SPEC, **{field: bad})


def test_unknown_graph_rejected_at_submit(svc):
    with pytest.raises(ServeError, match="unknown graph"):
        svc.submit(pagerank_spec(graph="nope"))


def test_time_slicing_interleaves_tenants(svc):
    a = svc.submit(pagerank_spec(tenant="alice", use_cache=False))
    b = svc.submit(JobSpec(graph="g", algorithm="cc", tenant="bob",
                           use_cache=False))
    svc.run()
    assert a.state == b.state == "done"
    # both consumed service and both latencies include the other's
    # slices — neither ran to completion before the other started
    assert a.latency_ms > a.consumed_ms
    assert b.latency_ms > b.consumed_ms
    snap = svc.ledger.snapshot()
    assert snap["alice"]["slices"] > 1 and snap["bob"]["slices"] > 1


def test_priority_weighted_fair_share(svc):
    lo = svc.submit(pagerank_spec(tenant="lo", priority=1,
                                  use_cache=False))
    hi = svc.submit(pagerank_spec(tenant="hi", priority=3,
                                  use_cache=False))
    svc.run()
    # same work, but the weighted tenant drains first
    assert hi.finished_ms < lo.finished_ms
    assert np.array_equal(lo.values, hi.values)


def test_identical_inflight_queries_coalesce(svc):
    first = svc.submit(pagerank_spec(tenant="alice"))
    second = svc.submit(pagerank_spec(tenant="bob"))
    svc.run()
    assert not first.from_cache and second.from_cache
    assert svc.metrics()["coalesced"] == 1
    assert np.array_equal(first.values, second.values)
    # the follower paid lookup cost, not an engine run
    assert second.consumed_ms < first.consumed_ms / 100


def test_repeated_query_hits_the_cache(svc):
    cold = svc.submit(pagerank_spec(tenant="alice"))
    svc.run()
    warm = svc.submit(pagerank_spec(tenant="bob"))
    svc.run()
    assert warm.from_cache and not cold.from_cache
    assert np.array_equal(warm.values, cold.values)
    assert svc.cache.hit_rate > 0.0
    # >= 10x is the acceptance bar; lookup vs engine run is ~10000x
    assert cold.consumed_ms / warm.consumed_ms >= 10.0


def test_crash_in_one_tenant_never_perturbs_the_others(svc):
    plan = FaultPlan.single(CRASH, superstep=1, node_id=0, repeat=3)
    chaos = svc.submit(pagerank_spec(
        tenant="chaos", use_cache=False,
        runtime=MiddlewareConfig.preset("resilient").with_(
            fault_plan=plan)))
    clean_pr = svc.submit(pagerank_spec(tenant="alice"))
    clean_cc = svc.submit(JobSpec(graph="g", algorithm="cc",
                                  tenant="bob"))
    svc.run()
    assert chaos.state == "done" and not chaos.fault_report.clean
    assert clean_pr.fault_report.clean and clean_cc.fault_report.clean
    # the isolation invariant: concurrent tenants' values are
    # byte-identical to their solo runs despite the injected crashes
    assert np.array_equal(clean_pr.values, solo_run(PageRank()).values)
    assert np.array_equal(clean_cc.values,
                          solo_run(ConnectedComponents(),
                                   max_iter=None).values)


def test_unrecoverable_job_fails_alone(svc):
    # repeated crashes on the no-recovery baseline stack kill the job
    plan = FaultPlan.single(CRASH, superstep=1, node_id=0, repeat=50)
    doomed = svc.submit(pagerank_spec(
        tenant="chaos", use_cache=False,
        runtime=MiddlewareConfig.preset("baseline").with_(
            fault_plan=plan)))
    bystander = svc.submit(pagerank_spec(tenant="alice"))
    svc.run()
    assert doomed.state == "failed"
    assert doomed.error is not None
    assert bystander.state == "done"
    assert np.array_equal(bystander.values, solo_run(PageRank()).values)


def test_cancel_pending_and_running(svc):
    a = svc.submit(pagerank_spec(tenant="a", use_cache=False))
    b = svc.submit(pagerank_spec(tenant="b", use_cache=False))
    for _ in range(3):
        svc.step()
    assert svc.cancel(b.job_id)
    assert b.state == "cancelled"
    svc.run()
    assert a.state == "done"
    assert not svc.cancel(a.job_id)        # already finished
    with pytest.raises(ServeError):
        svc.cancel(999)
    assert svc.store.get("g").attached == 0


def test_cancelled_leader_hands_off_to_waiters(svc):
    leader = svc.submit(pagerank_spec(tenant="a"))
    follower = svc.submit(pagerank_spec(tenant="b"))
    for _ in range(2):
        svc.step()
    assert svc.metrics()["coalesced"] == 1
    assert svc.cancel(leader.job_id)
    svc.run()
    assert leader.state == "cancelled"
    assert follower.state == "done"
    assert np.array_equal(follower.values, solo_run(PageRank()).values)


def test_admission_budgets_serialize_excess_jobs():
    svc = GraphService(SPEC, daemon_budget=2)   # one job's worth
    svc.load_graph("g", dataset="wrn")
    a = svc.submit(pagerank_spec(tenant="a", use_cache=False))
    b = svc.submit(pagerank_spec(tenant="b", use_cache=False))
    svc.run()
    assert a.state == b.state == "done"
    assert svc.queue.stats()["deferrals"] > 0
    # serialized: b waited for a's daemons, so its latency includes
    # a's full run
    assert b.queue_ms >= a.consumed_ms


def test_impossible_job_rejected_at_submit():
    svc = GraphService(SPEC, memory_budget_mb=1e-6)
    svc.load_graph("g", dataset="wrn")
    with pytest.raises(AdmissionError, match="memory budget"):
        svc.submit(pagerank_spec())
    assert len(svc.queue) == 0                 # nothing stranded


def test_per_job_traces_written(tmp_path, svc_factory=None):
    svc = GraphService(SPEC, trace_dir=str(tmp_path))
    svc.load_graph("g", dataset="wrn")
    cold = svc.submit(JobSpec(graph="g", algorithm="pagerank",
                              tenant="alice", max_iterations=4))
    svc.run()
    warm = svc.submit(JobSpec(graph="g", algorithm="pagerank",
                              tenant="bob", max_iterations=4))
    svc.run()
    cold_doc = json.loads(
        (tmp_path / f"job-{cold.job_id}.json").read_text())
    assert cold_doc["job"]["tenant"] == "alice"
    assert cold_doc["job"]["from_cache"] is False
    assert cold_doc["summary"]["algorithm"] == "pagerank"
    assert len(cold_doc["iterations"]) == cold.result.iterations
    assert cold_doc["summary"]["cluster_spec"]["nodes"] == 2
    warm_doc = json.loads(
        (tmp_path / f"job-{warm.job_id}.json").read_text())
    assert warm_doc["job"]["from_cache"] is True
    assert "summary" not in warm_doc       # no engine run to record


def test_metrics_snapshot(svc):
    svc.submit(pagerank_spec(tenant="alice"))
    svc.run()
    m = svc.metrics()
    assert m["jobs"] == {"done": 1}
    assert m["latency"]["count"] == 1
    assert m["store"]["graphs"]["g"]["attached"] == 0
    assert m["cache"]["entries"] == 1
    assert m["now_ms"] > 0


def test_service_is_deterministic():
    def session():
        svc = GraphService(SPEC)
        svc.load_graph("g", dataset="wrn")
        jobs = [svc.submit(pagerank_spec(tenant=f"t{i}",
                                         use_cache=False))
                for i in range(3)]
        svc.run()
        return [(j.latency_ms, j.consumed_ms) for j in jobs], svc.now_ms

    assert session() == session()


# -- deadlines, retries, quarantine (crash-safe serving) ---------------------------------

def test_deadline_blown_while_running_fails_terminally(svc):
    job = svc.submit(pagerank_spec(tenant="alice", use_cache=False,
                                   deadline_ms=0.5, max_retries=3))
    svc.run()
    # the deadline is terminal even with a retry budget left
    assert job.state == "failed"
    assert "deadline exceeded" in job.error
    assert job.retries == 0


def test_deadline_blown_while_queued_fails_before_dispatch():
    svc = GraphService(SPEC, daemon_budget=2)   # one job at a time
    svc.load_graph("g", dataset="wrn")
    first = svc.submit(pagerank_spec(tenant="a", use_cache=False))
    starved = svc.submit(pagerank_spec(tenant="b", use_cache=False,
                                       deadline_ms=1.0))
    svc.run()
    assert first.state == "done"
    assert starved.state == "failed"
    assert "deadline exceeded while queued" in starved.error
    assert starved.consumed_ms == 0.0           # never dispatched


def test_unmeetable_deadline_shed_at_admission():
    svc = GraphService(SPEC, daemon_budget=2)
    svc.load_graph("g", dataset="wrn")
    svc.submit(pagerank_spec(tenant="warmup", use_cache=False))
    svc.run()                                   # seeds the EWMA
    svc.submit(pagerank_spec(tenant="a", use_cache=False))
    svc.submit(JobSpec(graph="g", algorithm="cc", tenant="b",
                       use_cache=False))
    with pytest.raises(AdmissionError, match="deadline .* unmeetable"):
        svc.submit(pagerank_spec(tenant="c", deadline_ms=0.001))
    assert svc.queue.stats()["sheds"] == 1
    assert any("unmeetable" in r for r in svc.admission.shed_reasons)
    svc.run()                                   # backlog still drains


def test_overload_sheds_on_queue_depth_and_tenant_cap():
    svc = GraphService(SPEC, daemon_budget=2, max_queue_depth=3,
                       max_pending_per_tenant=1)
    svc.load_graph("g", dataset="wrn")
    svc.submit(pagerank_spec(tenant="a", use_cache=False))
    svc.submit(pagerank_spec(tenant="b", use_cache=False))
    with pytest.raises(AdmissionError, match="has 1/1 jobs pending"):
        svc.submit(pagerank_spec(tenant="b", use_cache=False))
    svc.submit(JobSpec(graph="g", algorithm="cc", tenant="c"))
    with pytest.raises(AdmissionError, match="queue depth 3/3"):
        svc.submit(pagerank_spec(tenant="d", use_cache=False))
    assert svc.queue.stats()["sheds"] == 2
    assert len(svc.queue) == 3                  # sheds left no residue


def test_transient_failure_retries_from_checkpoint(svc):
    runtime = MiddlewareConfig(checkpoint_interval=2)
    job = svc.submit(pagerank_spec(tenant="alice", use_cache=False,
                                   max_retries=2, retry_backoff_ms=4.0,
                                   runtime=runtime))
    for _ in range(5):                          # past the iteration-4 ckpt
        svc.step()
    rj = svc.scheduler.find(job.job_id)
    rj.stepper.close()
    svc._fail(rj, ServeError("transient glitch"))  # simulated blip
    assert job.state == "pending" and job.retries == 1
    assert job.resume_from is not None
    assert job.not_before_ms == svc.now_ms + 4.0   # backoff window
    resumed_at = job.resume_from.iteration
    svc.run()
    assert job.state == "done"
    assert svc.metrics()["retries"] == 1
    # the retry resumed mid-run, recomputing only the tail
    assert len(job.result.stats) == job.result.iterations - resumed_at
    assert np.array_equal(job.values, solo_run(PageRank()).values)


def test_poison_job_quarantined_after_retry_budget(svc):
    plan = FaultPlan.single(CRASH, superstep=1, node_id=0, repeat=50)
    doomed = svc.submit(pagerank_spec(
        tenant="chaos", use_cache=False, max_retries=2,
        runtime=MiddlewareConfig.preset("baseline").with_(
            fault_plan=plan)))
    bystander = svc.submit(pagerank_spec(tenant="alice"))
    svc.run()
    assert doomed.state == "quarantined"
    assert doomed.retries == 2
    assert "poison: failed 3 times (budget 2)" in \
        doomed.quarantine_reason
    assert bystander.state == "done"
    assert np.array_equal(bystander.values, solo_run(PageRank()).values)
    assert svc.metrics()["jobs"] == {"done": 1, "quarantined": 1}


# -- drain and journal recovery ----------------------------------------------------------

def test_drain_finishes_running_sheds_pending(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, daemon_budget=2, journal=jpath)
    svc.load_graph("g", dataset="wrn")
    running = svc.submit(pagerank_spec(tenant="a", use_cache=False))
    pending = svc.submit(pagerank_spec(tenant="b", use_cache=False))
    svc.step()                                  # a is in flight
    svc.drain()
    assert running.state == "done"
    assert pending.state == "cancelled"
    assert pending.error == "shed: service draining"
    assert svc.queue.stats()["sheds"] == 1
    with pytest.raises(AdmissionError, match="draining"):
        svc.submit(pagerank_spec(tenant="late"))
    assert svc.journal.closed
    from repro.serve import read_journal
    assert read_journal(jpath)[-1]["rec"] == "shutdown"
    assert read_journal(jpath)[-1]["clean"]
    rec = GraphService.recover(jpath)
    assert rec.metrics()["recovered_jobs"] == 0  # nothing left unfinished
    assert rec.job(running.job_id).state == "done"
    assert rec.job(pending.job_id).state == "cancelled"


def test_drain_sheds_through_admission_and_keeps_reasons_bounded():
    """Every job pending at a drain is one admission shed, and the
    recorded reasons keep the same bounded tail as any other shed."""
    svc = GraphService(SPEC)
    svc.load_graph("g", rmat(64, 256, seed=1))
    jobs = [svc.submit(pagerank_spec(tenant=f"t{i}", use_cache=False))
            for i in range(60)]
    svc.drain()
    assert all(j.state == "cancelled" for j in jobs)
    queue = svc.queue.stats()
    assert queue["sheds"] == 60
    assert len(queue["shed_reasons"]) == 50
    assert queue["shed_reasons"][-1] == "job #60 (t59): pending at drain"


def test_recover_resumes_inflight_jobs_bit_identically(tmp_path):
    def submit_all(service):
        return [service.submit(pagerank_spec(
                    tenant="a", use_cache=False, max_iterations=10)),
                service.submit(JobSpec(graph="g", algorithm="cc",
                                       tenant="b", use_cache=False))]

    base = GraphService(SPEC, journal=str(tmp_path / "base.jsonl"))
    base.load_graph("g", dataset="wrn")
    base_jobs = submit_all(base)
    base.run()
    cold_steps = [len(j.result.stats) for j in base_jobs]

    jpath = str(tmp_path / "crash.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    svc.load_graph("g", dataset="wrn")
    submit_all(svc)
    for _ in range(9):                          # killed mid-flight
        svc.step()
    del svc                                     # nothing is flushed

    rec = GraphService.recover(jpath)
    assert rec.metrics()["recovered_jobs"] == 2
    assert rec.metrics()["resumed_from_checkpoint"] >= 1
    resumed = {j.job_id for j in rec.queue.jobs()
               if j.resume_from is not None}
    rec.run()
    for base_job, steps in zip(base_jobs, cold_steps):
        job = rec.job(base_job.job_id)
        assert job.state == "done"
        assert np.array_equal(job.values, base_job.values)
        if job.job_id in resumed:
            assert len(job.result.stats) < steps


def test_recover_after_the_converged_slice_ends_where_the_run_did(tmp_path):
    """Killed after the converged superstep but before ``finished``: the
    converged superstep's checkpoint was never journaled, so recovery
    resumes one superstep earlier and re-runs the last one instead of
    running one superstep past convergence."""
    graph = rmat(300, 2400, seed=5)

    def service(name):
        svc = GraphService(SPEC, journal=str(tmp_path / name),
                           journal_checkpoint_interval=1)
        svc.load_graph("g", graph)
        return svc

    spec = JobSpec(graph="g", algorithm="sssp-bf", use_cache=False)
    base = service("base.jsonl")
    whole = base.submit(spec)
    base.run()

    svc = service("crash.jsonl")
    job = svc.submit(spec)
    while job.slices < whole.result.iterations:
        svc.step()
    assert job.state == "running"               # converged, not finished
    del svc

    rec = GraphService.recover(str(tmp_path / "crash.jsonl"),
                               graphs={"g": graph})
    assert rec.metrics()["resumed_from_checkpoint"] == 1
    rec.run()
    resumed = rec.job(job.job_id)
    assert resumed.result.iterations == whole.result.iterations
    assert resumed.result.converged
    assert resumed.values.tobytes() == whole.values.tobytes()
    assert [s.index for s in resumed.result.stats] == \
        [whole.result.iterations - 1]


def test_recover_restores_terminal_jobs_and_cache(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    svc.load_graph("g", dataset="wrn")
    done = svc.submit(pagerank_spec(tenant="a"))
    svc.run()
    svc.submit(pagerank_spec(tenant="late", deadline_ms=0.5,
                             use_cache=False))
    svc.run()                                   # fails on its deadline
    from repro.serve import read_journal
    before = len(read_journal(jpath))

    rec = GraphService.recover(jpath)
    # replay appended nothing — recovery is idempotent
    assert len(read_journal(jpath)) == before
    assert rec.metrics()["recovered_jobs"] == 0  # nothing to re-queue
    assert rec.job(done.job_id).state == "done"
    assert np.array_equal(rec.job(done.job_id).values, done.values)
    assert rec.job(2).state == "failed"
    assert "deadline exceeded" in rec.job(2).error
    # the finished answer re-entered the result cache from its sidecar:
    # an identical query is served at lookup cost, byte-identically
    warm = rec.submit(pagerank_spec(tenant="b"))
    rec.run()
    assert warm.from_cache
    assert np.array_equal(warm.values, done.values)


def test_journaling_never_moves_values(tmp_path):
    def session(journal):
        svc = GraphService(SPEC, journal=journal)
        svc.load_graph("g", dataset="wrn")
        jobs = [svc.submit(pagerank_spec(tenant=f"t{i}",
                                         use_cache=False))
                for i in range(2)]
        svc.run()
        return jobs

    plain = session(None)
    logged = session(str(tmp_path / "svc.jsonl"))
    for a, b in zip(plain, logged):
        # the forced checkpoint interval costs time, never values
        assert np.array_equal(a.values, b.values)


# -- idempotency keys (exactly-once submits) ---------------------------------------------

def test_idempotency_key_dedupes_resubmit(svc):
    first = svc.submit(pagerank_spec(tenant="a"), idempotency_key="k1")
    again = svc.submit(pagerank_spec(tenant="a"), idempotency_key="k1")
    assert again is first
    assert svc.metrics()["deduped_submits"] == 1
    assert svc.metrics()["deduped_submits"] == 1
    assert svc.idempotent_job_id("k1") == first.job_id
    assert svc.idempotent_job_id("other") is None


def test_idempotency_key_must_be_nonempty_string(svc):
    with pytest.raises(ServeError, match="idempotency_key"):
        svc.submit(pagerank_spec(tenant="a"), idempotency_key="")
    with pytest.raises(ServeError, match="idempotency_key"):
        svc.submit(pagerank_spec(tenant="a"), idempotency_key=7)


def test_shed_submit_does_not_consume_the_key():
    service = GraphService(SPEC, max_queue_depth=1)
    service.load_graph("g", dataset="wrn")
    service.submit(pagerank_spec(tenant="a"))
    with pytest.raises(AdmissionError):
        service.submit(pagerank_spec(tenant="b"), idempotency_key="kb")
    # the refused submit never committed: the key is free to retry
    assert service.idempotent_job_id("kb") is None
    service.run()
    retry = service.submit(pagerank_spec(tenant="b"),
                           idempotency_key="kb")
    assert service.idempotent_job_id("kb") == retry.job_id


def test_idempotency_map_survives_crash_and_recover(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    service = GraphService(SPEC, journal=jpath)
    service.load_graph("g", dataset="wrn")
    job = service.submit(pagerank_spec(tenant="a"),
                         idempotency_key="crashkey")
    for _ in range(3):
        service.step()                  # killed mid-flight
    del service

    rec = GraphService.recover(jpath)
    dedup = rec.submit(pagerank_spec(tenant="a"),
                       idempotency_key="crashkey")
    assert dedup.job_id == job.job_id
    assert rec.metrics()["deduped_submits"] == 1
    rec.run()
    assert dedup.state == "done"


# -- drain: idempotent, concurrent-safe, reasoned ----------------------------------------

def test_drain_is_idempotent(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    service = GraphService(SPEC, journal=jpath)
    service.load_graph("g", dataset="wrn")
    service.submit(pagerank_spec(tenant="a"))
    first = service.drain(reason="test")
    second = service.drain(reason="other")
    assert second is first              # cached, nothing re-shed
    from repro.serve import read_journal
    records = read_journal(jpath)
    shutdowns = [r for r in records if r["rec"] == "shutdown"]
    assert len(shutdowns) == 1
    assert shutdowns[0]["reason"] == "test"


def test_concurrent_drains_journal_one_shutdown(tmp_path):
    import threading

    jpath = str(tmp_path / "svc.jsonl")
    service = GraphService(SPEC, journal=jpath)
    service.load_graph("g", dataset="wrn")
    service.submit(pagerank_spec(tenant="a", use_cache=False))
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(service.drain(reason="race")))
        for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(results) == 4
    assert all(r is results[0] for r in results)
    from repro.serve import read_journal
    records = read_journal(jpath)
    assert sum(r["rec"] == "shutdown" for r in records) == 1


def test_step_refuses_after_drain(svc):
    svc.submit(pagerank_spec(tenant="a"))
    svc.drain()
    assert svc.step() is False


def test_drain_suspend_mode_keeps_jobs_resumable(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    service = GraphService(SPEC, journal=jpath)
    service.load_graph("g", dataset="wrn")
    job = service.submit(pagerank_spec(tenant="a", use_cache=False,
                                       max_iterations=10))
    for _ in range(4):
        service.step()                  # mid-flight, checkpointed
    service.drain(reason="sigterm", finish_running=False)
    assert job.state != "done"          # suspended, not completed

    from repro.serve import read_journal
    marker = read_journal(jpath)[-1]
    assert marker["rec"] == "shutdown" and marker["clean"]
    assert marker["reason"] == "sigterm"

    rec = GraphService.recover(jpath)
    assert rec.metrics()["recovered_jobs"] == 1  # nothing terminal forged
    assert rec.metrics()["resumed_from_checkpoint"] == 1
    rec.run()
    resumed = rec.job(job.job_id)
    assert resumed.state == "done"
    assert len(resumed.result.stats) < 10   # resume beat cold restart
    assert np.array_equal(resumed.values, solo_run(PageRank(), 10).values)


def test_recovery_stats_counts_terminal_and_inflight(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    service = GraphService(SPEC, journal=jpath)
    service.load_graph("g", dataset="wrn")
    finished = service.submit(pagerank_spec(tenant="a"))
    service.run()
    inflight = service.submit(pagerank_spec(tenant="b", use_cache=False,
                                            algorithm="cc"))
    for _ in range(3):
        service.step()
    del service

    rec = GraphService.recover(jpath)
    stats = rec.metrics()["recovery"]
    assert stats["recovered"] == 2      # one terminal + one re-queued
    assert stats["requeued"] == 1
    assert stats["resumed"] in (0, 1)
    fresh = GraphService(SPEC)
    assert fresh.metrics()["recovery"] == {"recovered": 0, "requeued": 0,
                                           "resumed": 0, "handoffs": 0}


def test_recover_defaults_settings_the_journal_lacks(tmp_path):
    """A ``service_start`` record without a setting (an older writer)
    recovers with the constructor's default, not ``None``."""
    jpath = tmp_path / "svc.jsonl"
    service = GraphService(SPEC, journal=str(jpath), cache_entries=8)
    service.load_graph("g", dataset="wrn")
    del service
    lines = jpath.read_text().splitlines()
    start = json.loads(lines[0])
    assert start["rec"] == "service_start"
    del start["max_running"]
    jpath.write_text("\n".join([json.dumps(start, sort_keys=True),
                                *lines[1:]]) + "\n")

    rec = GraphService.recover(str(jpath))
    assert rec.admission.max_running == 4
    assert rec.cache.capacity == 8      # journaled settings still apply
