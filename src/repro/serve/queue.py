"""Admission control and the pending-job queue.

Admission is budgeted in the two currencies a serving deployment
actually runs out of:

* **memory** — resident bytes of attached graphs, counted *once* per
  graph no matter how many jobs share it (that sharing is the graph
  store's raison d'être).  A job whose graph is already attached by a
  running job is memory-free to admit.
* **daemons** — every running job plugs a full middleware (one daemon
  per accelerator) into the cluster, so concurrency is bounded by the
  daemon pool: ``daemon_budget // daemons_per_job`` jobs at once.

Jobs that can never fit — their graph alone busts the memory budget,
or one job needs more daemons than exist — are rejected at submit time
with :class:`~repro.errors.AdmissionError` instead of deadlocking the
queue.  Jobs that merely cannot fit *now* wait.

On top of the feasibility budgets sits **overload protection**: a max
queue depth, per-tenant pending caps, and deadline-aware admission
(a job whose deadline cannot be met given the current backlog's
estimated wait is refused up front).  Every refusal is a *shed* with a
recorded reason — load is dropped loudly, never silently.

Dequeue order is strict priority, FIFO within a priority class, with
one refinement: a job that fits may overtake a higher-priority job
that does not (backfilling), so a big job waiting for memory never
starves small ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..core.config import check_count
from ..errors import AdmissionError, ServeError
from .job import CANCELLED, Job


@dataclass
class ResourceUsage:
    """What the running set holds right now (service-computed)."""

    memory_bytes: int = 0
    daemons: int = 0
    running: int = 0
    #: graph keys currently attached — jobs on these are memory-free
    attached_graphs: Set[str] = field(default_factory=set)


class AdmissionControl:
    """Budget checks; ``None`` budgets are unlimited."""

    #: event counts, kept in :attr:`counts`: jobs that could never run,
    #: and overload/deadline refusals (their reasons in
    #: :attr:`shed_reasons`)
    COUNTS = ("rejections", "sheds")

    def __init__(self, memory_budget_bytes: Optional[int] = None,
                 daemon_budget: Optional[int] = None,
                 max_running: Optional[int] = None,
                 daemons_per_job: int = 0,
                 max_queue_depth: Optional[int] = None,
                 max_pending_per_tenant: Optional[int] = None) -> None:
        for name, value in (("memory_budget_bytes", memory_budget_bytes),
                            ("daemon_budget", daemon_budget),
                            ("max_running", max_running),
                            ("max_queue_depth", max_queue_depth),
                            ("max_pending_per_tenant",
                             max_pending_per_tenant)):
            if value is not None:
                check_count(name, value, 1, error=ServeError)
        self.memory_budget_bytes = memory_budget_bytes
        self.daemon_budget = daemon_budget
        self.max_running = max_running
        self.daemons_per_job = daemons_per_job
        self.max_queue_depth = max_queue_depth
        self.max_pending_per_tenant = max_pending_per_tenant
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self.shed_reasons: List[str] = []

    def shed(self, job: Job, reason: str) -> AdmissionError:
        """Record an overload refusal and build its error (not raised
        here — the caller journals the shed first)."""
        self.counts["sheds"] += 1
        self.shed_reasons.append(
            f"job #{job.job_id} ({job.spec.tenant}): {reason}")
        del self.shed_reasons[:-50]        # keep the tail bounded
        return AdmissionError(
            f"job #{job.job_id} ({job.spec.tenant}) shed: {reason}")

    def overload_reason(self, job: Job, pending: List[Job],
                        running: int) -> Optional[str]:
        """Why admitting ``job`` would overload the service (None = ok).

        ``pending`` is the current queue contents; ``running`` the
        running-set size (a tenant's running jobs don't count against
        its *pending* cap).
        """
        if (self.max_queue_depth is not None
                and len(pending) >= self.max_queue_depth):
            return (f"queue depth {len(pending)}/"
                    f"{self.max_queue_depth} (overload)")
        if self.max_pending_per_tenant is not None:
            mine = sum(1 for p in pending
                       if p.spec.tenant == job.spec.tenant)
            if mine >= self.max_pending_per_tenant:
                return (f"tenant {job.spec.tenant!r} has {mine}/"
                        f"{self.max_pending_per_tenant} jobs pending")
        return None

    def deadline_reason(self, job: Job,
                        estimated_wait_ms: Optional[float]
                        ) -> Optional[str]:
        """Refuse a deadline the backlog already makes unmeetable.

        ``estimated_wait_ms`` is the service's queue-wait estimate
        (None when it has no completed-job history yet — then nothing
        is refused: shedding on a guess would be worse than queueing).
        """
        deadline = job.spec.deadline_ms
        if deadline is None or estimated_wait_ms is None:
            return None
        if estimated_wait_ms > deadline:
            return (f"deadline {deadline:g} ms unmeetable: estimated "
                    f"queue wait {estimated_wait_ms:.3f} ms")
        return None

    def check_feasible(self, job: Job, graph_bytes: int) -> None:
        """Raise :class:`AdmissionError` if ``job`` can never run.

        Judged against an idle service: the graph alone within the
        memory budget, one job's daemons within the daemon budget.
        """
        if (self.memory_budget_bytes is not None
                and graph_bytes > self.memory_budget_bytes):
            self.counts["rejections"] += 1
            raise AdmissionError(
                f"job #{job.job_id} ({job.spec.tenant}): graph "
                f"{job.spec.graph!r} needs {graph_bytes} bytes but the "
                f"memory budget is {self.memory_budget_bytes}")
        if (self.daemon_budget is not None
                and self.daemons_per_job > self.daemon_budget):
            self.counts["rejections"] += 1
            raise AdmissionError(
                f"job #{job.job_id} ({job.spec.tenant}): needs "
                f"{self.daemons_per_job} daemons but the budget is "
                f"{self.daemon_budget}")

    def defer_reason(self, job: Job, graph_bytes: int,
                     usage: ResourceUsage) -> Optional[str]:
        """Why ``job`` cannot start *right now* (``None`` = admit)."""
        if (self.max_running is not None
                and usage.running >= self.max_running):
            return (f"{usage.running}/{self.max_running} "
                    f"concurrent jobs running")
        if self.daemon_budget is not None:
            needed = usage.daemons + self.daemons_per_job
            if needed > self.daemon_budget:
                return (f"daemon pool exhausted "
                        f"({usage.daemons}/{self.daemon_budget} in use)")
        if (self.memory_budget_bytes is not None
                and job.spec.graph not in usage.attached_graphs):
            needed = usage.memory_bytes + graph_bytes
            if needed > self.memory_budget_bytes:
                return (f"memory budget exhausted ({usage.memory_bytes}"
                        f"/{self.memory_budget_bytes} bytes attached)")
        return None


class JobQueue:
    """Pending jobs: strict priority, FIFO within a class, backfilled."""

    #: event counts, kept in :attr:`counts`: pending jobs passed over
    #: because they did not fit at a dispatch
    COUNTS = ("deferrals",)

    def __init__(self, admission: AdmissionControl) -> None:
        self.admission = admission
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self._pending: List[Job] = []
        self.last_defer_reason: Optional[str] = None

    def push(self, job: Job) -> None:
        self._pending.append(job)
        # stable sort: priority desc, then submit order (job ids ascend)
        self._pending.sort(key=lambda j: (-j.spec.priority, j.job_id))

    def cancel(self, job_id: int) -> Optional[Job]:
        """Pull a pending job out of the queue; returns it if found."""
        for i, job in enumerate(self._pending):
            if job.job_id == job_id:
                del self._pending[i]
                job.state = CANCELLED
                return job
        return None

    def pop_admissible(self, usage: ResourceUsage,
                       graph_bytes: Dict[str, int],
                       now_ms: Optional[float] = None) -> Optional[Job]:
        """Highest-priority job that fits now; backfills past misfits.

        ``graph_bytes`` maps each pending job's graph key to its
        resident size.  Records the head-of-queue defer reason in
        :attr:`last_defer_reason` for observability.  When ``now_ms``
        is given, jobs still inside their retry backoff window
        (``job.not_before_ms``) are skipped over.
        """
        self.last_defer_reason = None
        for i, job in enumerate(self._pending):
            if (now_ms is not None and job.not_before_ms is not None
                    and job.not_before_ms > now_ms):
                if i == 0:
                    self.last_defer_reason = (
                        f"job #{job.job_id}: in retry backoff until "
                        f"{job.not_before_ms:.3f} ms")
                continue
            reason = self.admission.defer_reason(
                job, graph_bytes[job.spec.graph], usage)
            if reason is None:
                del self._pending[i]
                return job
            if i == 0:
                self.last_defer_reason = (f"job #{job.job_id}: {reason}")
            self.counts["deferrals"] += 1
        return None

    def next_not_before(self, now_ms: float) -> Optional[float]:
        """Earliest future backoff release among pending jobs, so an
        otherwise-idle service can advance its clock straight to it."""
        future = [j.not_before_ms for j in self._pending
                  if j.not_before_ms is not None
                  and j.not_before_ms > now_ms]
        return min(future) if future else None

    def jobs(self) -> List[Job]:
        return list(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def stats(self) -> Dict[str, Any]:
        return {
            "pending": len(self._pending),
            **self.counts,
            **self.admission.counts,
            "shed_reasons": list(self.admission.shed_reasons),
            "last_defer_reason": self.last_defer_reason,
        }
