"""Admission control + queue ordering: budgets, priorities, backfill."""

import pytest

from repro.errors import AdmissionError, ServeError
from repro.serve import AdmissionControl, JobQueue, JobSpec, ResourceUsage
from repro.serve.job import Job


def job(job_id, priority=1, graph="g", tenant="t"):
    return Job(job_id, JobSpec(graph=graph, priority=priority,
                               tenant=tenant), submitted_ms=0.0)


def test_budget_validation():
    with pytest.raises(ServeError):
        AdmissionControl(memory_budget_bytes=0)
    with pytest.raises(ServeError):
        AdmissionControl(daemon_budget=-1)
    with pytest.raises(ServeError):
        AdmissionControl(max_running=0)


def test_infeasible_jobs_are_rejected_outright():
    ac = AdmissionControl(memory_budget_bytes=100, daemon_budget=4,
                          daemons_per_job=2)
    ac.check_feasible(job(1), graph_bytes=100)        # exactly fits
    with pytest.raises(AdmissionError, match="memory budget"):
        ac.check_feasible(job(2), graph_bytes=101)
    big = AdmissionControl(daemon_budget=4, daemons_per_job=8)
    with pytest.raises(AdmissionError, match="daemons"):
        big.check_feasible(job(3), graph_bytes=0)
    assert ac.counts["rejections"] == 1 and big.counts["rejections"] == 1


def test_defer_on_daemon_pool_exhaustion():
    ac = AdmissionControl(daemon_budget=4, daemons_per_job=2)
    free = ResourceUsage()
    assert ac.defer_reason(job(1), 0, free) is None
    busy = ResourceUsage(daemons=4, running=2)
    assert "daemon pool" in ac.defer_reason(job(1), 0, busy)


def test_defer_on_max_running():
    ac = AdmissionControl(max_running=1)
    assert "concurrent jobs" in ac.defer_reason(
        job(1), 0, ResourceUsage(running=1))


def test_memory_counts_shared_graphs_once():
    ac = AdmissionControl(memory_budget_bytes=100, daemons_per_job=1)
    # 90 of 100 bytes attached, and the new job's graph IS the
    # attached one: admission is memory-free
    usage = ResourceUsage(memory_bytes=90, attached_graphs={"g"})
    assert ac.defer_reason(job(1, graph="g"), 90, usage) is None
    # a different graph of 90 bytes would bust the budget
    assert "memory budget" in ac.defer_reason(job(2, graph="h"), 90,
                                              usage)


def test_priority_order_fifo_within_class():
    q = JobQueue(AdmissionControl())
    lo1, hi, lo2 = job(1, priority=1), job(2, priority=3), job(3,
                                                               priority=1)
    for j in (lo1, hi, lo2):
        q.push(j)
    free = ResourceUsage()
    sizes = {"g": 0}
    assert q.pop_admissible(free, sizes) is hi
    assert q.pop_admissible(free, sizes) is lo1   # FIFO among equals
    assert q.pop_admissible(free, sizes) is lo2
    assert q.pop_admissible(free, sizes) is None


def test_backfill_past_a_job_that_does_not_fit():
    ac = AdmissionControl(memory_budget_bytes=100, daemons_per_job=1)
    q = JobQueue(ac)
    big = job(1, priority=5, graph="big")
    small = job(2, priority=1, graph="small")
    q.push(big)
    q.push(small)
    usage = ResourceUsage(memory_bytes=60, attached_graphs={"other"})
    sizes = {"big": 80, "small": 10}
    # big (priority 5) cannot fit now; small backfills past it
    assert q.pop_admissible(usage, sizes) is small
    assert q.last_defer_reason is not None
    assert "1" in q.last_defer_reason
    assert q.stats()["deferrals"] >= 1
    # big is still queued, not lost
    assert q.jobs() == [big]


def test_cancel_pending():
    q = JobQueue(AdmissionControl())
    a, b = job(1), job(2)
    q.push(a)
    q.push(b)
    assert q.cancel(1) is a
    assert a.state == "cancelled"
    assert q.cancel(99) is None
    assert len(q) == 1
