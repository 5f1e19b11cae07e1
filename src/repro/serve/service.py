"""The serving facade: a resident GX-Plug deployment answering jobs.

``deploy()`` is a one-shot: build a cluster, plug the middleware in,
run one algorithm, tear it down.  :class:`GraphService` is the
long-lived counterpart — one Python process holding graphs resident,
admitting queued tenant jobs under resource budgets, time-slicing the
daemon pool across them at superstep granularity, and memoizing
answers::

    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1))
    svc.load_graph("wiki", dataset="wrn")
    job = svc.submit(JobSpec(graph="wiki", algorithm="pagerank",
                             tenant="alice"))
    svc.run()
    job.values, job.latency_ms, svc.cache.stats()

Everything stays deterministic: the service clock advances by exactly
the simulated cost of each slice, so latencies, queue waits and fair
shares are reproducible run over run — and a cache hit returns values
byte-identical to the recompute it saved.

Jobs are isolated by construction.  Each admitted job gets a private
cluster build (from the shared :class:`ClusterSpec`) and a private
middleware; only the immutable graph and its memoized partitions are
shared.  One tenant's injected crash burns that tenant's simulated
time through its own rollback path; everyone else's values are
untouched.

The service itself is crash-safe when given a ``journal`` path: every
lifecycle transition is one record of a write-ahead journal
(:mod:`repro.serve.journal`), built once and handed to ``_apply``, which
writes it and runs its kind's transition from one table.
:meth:`GraphService.recover` rebuilds a crashed service by handing the
records it reads to the same ``_apply`` with writing off —
finished jobs re-serve from the result cache, in-flight jobs resume
from their last durable checkpoint via the engines'
``run_stepwise(resume_from=...)`` entry point instead of recomputing
from iteration 0.  Per-job deadlines, bounded checkpoint-resume
retries with quarantine, overload shedding and a :meth:`drain`
lifecycle round out the resilience story.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.config import ClusterSpec, check_cost, check_count
from ..core.middleware import GXPlug
from ..engines.base import RunResult
from ..engines.trace import write_json
from ..errors import GraphError, ReproError, ServeError
from ..graph import load_dataset
from ..graph.mutations import MutationBatch, plan_warm_start
from .cache import CACHE_LOOKUP_MS, ResultCache
from .job import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RUNNING,
    Job,
    JobSpec,
    _known_fields,
)
from .journal import JOURNAL_VERSION, JobJournal, read_journal, replay_journal
from .queue import AdmissionControl, JobQueue, ResourceUsage
from .scheduler import FairShareLedger, FairShareScheduler, RunningJob
from .store import GraphStore


class GraphService:
    """Multi-tenant serving over one simulated cluster description."""

    #: event counts, kept in :attr:`counts`: queries parked behind an
    #: identical in-flight one, waiter groups that abandoned a hung
    #: leader, checkpoint-resume retries, submits answered from the
    #: idempotency map, mutation batches applied / answered from the
    #: log / that :meth:`recover` could not re-apply, warm-started
    #: dispatches, and what the last recover() restored: jobs
    #: re-queued, checkpoint resumes, every job
    COUNTS = ("coalesced", "handoffs", "retries", "deduped_submits",
              "mutations", "deduped_mutations", "skipped_mutations",
              "warm_starts", "recovered_jobs", "resumed_from_checkpoint",
              "recovered")

    def __init__(self, spec: Optional[ClusterSpec] = None, *,
                 memory_budget_mb: Optional[float] = None,
                 daemon_budget: Optional[int] = None,
                 max_running: Optional[int] = 4,
                 cache_entries: int = 64,
                 trace_dir: Optional[str] = None,
                 max_queue_depth: Optional[int] = None,
                 max_pending_per_tenant: Optional[int] = None,
                 waiter_timeout_ms: Optional[float] = None,
                 journal: Optional[str] = None,
                 journal_checkpoint_interval: int = 2) -> None:
        # counts fail here, not at the first dispatch
        check_count("cache_entries", cache_entries, 1)
        check_count("journal_checkpoint_interval",
                    journal_checkpoint_interval, 0)
        for name, count in (("daemon_budget", daemon_budget),
                            ("max_running", max_running),
                            ("max_queue_depth", max_queue_depth),
                            ("max_pending_per_tenant",
                             max_pending_per_tenant)):
            if count is not None:
                check_count(name, count, 1)
        self.spec = spec if spec is not None else ClusterSpec()
        self.store = GraphStore()
        self.cache = ResultCache(cache_entries)
        daemons_per_job = self.spec.nodes * (
            self.spec.gpus_per_node + self.spec.cpus_per_node)
        budget_bytes = (None if memory_budget_mb is None else int(
            check_cost("memory_budget_mb", memory_budget_mb, positive=True,
                       error=ServeError) * 1024 * 1024))
        self.admission = AdmissionControl(
            memory_budget_bytes=budget_bytes,
            daemon_budget=daemon_budget,
            max_running=max_running,
            daemons_per_job=daemons_per_job,
            max_queue_depth=max_queue_depth,
            max_pending_per_tenant=max_pending_per_tenant)
        self.queue = JobQueue(self.admission)
        self.scheduler = FairShareScheduler()
        self.ledger = FairShareLedger()
        self.trace_dir = trace_dir
        #: the service clock, simulated ms since service start
        self.now_ms = 0.0
        self._jobs: Dict[int, Job] = {}
        self._next_job_id = 1
        # request coalescing: cache key -> jobs waiting on the one
        # in-flight computation of that exact query
        self._waiters: Dict[Any, List[Job]] = {}
        #: when each waiter group first parked (hung-leader timeout)
        self._waiter_parked_ms: Dict[Any, float] = {}
        self.counts = dict.fromkeys(self.COUNTS, 0)
        #: True once :meth:`drain` started — new submissions are shed
        self.draining = False
        #: client idempotency key -> job id (exactly-once submits);
        #: journaled, so dedupe survives a crash + :meth:`recover`
        self._idempotency: Dict[str, int] = {}
        #: warm-start seeds harvested from cached fixpoints at mutation
        #: time: (graph key, algorithm, params fingerprint) ->
        #: (seed version, CachedResult).  Not journaled: replaying a
        #: ``mutation`` harvests them again from the cache entries the
        #: journal restored.  Bounded as a
        #: small LRU (see :meth:`_warm_put`) and pruned whenever a
        #: key's mutation history is severed, so stale seeds can never
        #: chain-match a reloaded incarnation of the key.
        self._warm: Dict[Tuple[str, str, str], Tuple[int, Any]] = {}
        self._warm_cap = max(cache_entries, 8)
        #: graph key -> the engine classes jobs asked for since its
        #: last load: a mutation carries each one's partition forward
        self._engines: Dict[str, set] = {}
        self._mutation_seq = 0
        # drain/recover lifecycle guard: drain() must be idempotent and
        # safe to call from a signal handler or a second thread while
        # the serving loop (or a recovery) is mid-flight
        self._lifecycle = threading.RLock()
        self._drain_result: Optional[List[Job]] = None
        #: simulated ms a job waits for a singleflight leader before the
        #: group abandons it and recomputes (None = wait forever)
        self.waiter_timeout_ms = None if waiter_timeout_ms is None else (
            check_cost("waiter_timeout_ms", waiter_timeout_ms,
                       positive=True, error=ServeError))
        # EWMA of completed engine-run service times, feeding the
        # deadline-aware admission's queue-wait estimate
        self._ewma_service_ms: Optional[float] = None
        #: checkpoint interval forced onto jobs that disabled
        #: checkpointing, when journaling — without a checkpoint there
        #: is nothing to resume from (costs change, values never do)
        self.journal_checkpoint_interval = journal_checkpoint_interval
        self.journal: Optional[JobJournal] = None
        if journal is not None:
            self.journal = JobJournal(journal)
            self._apply({
                "rec": "service_start", "version": JOURNAL_VERSION,
                "cluster": self.spec.to_dict(),
                "memory_budget_mb": memory_budget_mb,
                "daemon_budget": daemon_budget, "max_running": max_running,
                "cache_entries": cache_entries, "trace_dir": trace_dir,
                "max_queue_depth": max_queue_depth,
                "max_pending_per_tenant": max_pending_per_tenant,
                "waiter_timeout_ms": waiter_timeout_ms,
                "journal_checkpoint_interval": journal_checkpoint_interval})

    # -- graphs -------------------------------------------------------------------------

    def load_graph(self, key: str, graph=None, *,
                   dataset: Optional[str] = None):
        """Load a graph, or replace a resident one wholesale.

        A replace is a new store version: jobs already submitted keep
        their pinned snapshot, later submits see the new graph, and
        cached answers for the key are invalidated.
        """
        self._apply({"rec": "graph_loaded", "key": key, "dataset": dataset},
                    self.store._resolve(graph, dataset))
        return self.store.get(key)

    def unload_graph(self, key: str) -> None:
        """Evict a graph plus the service state that references it.

        Prefer this over calling ``svc.store.unload()`` directly: the
        store cannot see the service's per-key state, so a bare store
        unload would leave cached answers and harvested warm-start
        seeds behind — and a seed surviving into a later reload of the
        same key could warm-start against an unrelated graph.  Unloads
        are not journaled: a recover() of an older journal conservatively
        restores the key from its ``graph_loaded`` record.
        """
        self.store.unload(key)
        self.cache.invalidate_graph(key)
        self._prune_warm(key)
        self._engines.pop(key, None)

    def _warm_put(self, wkey: Tuple[str, str, str], version: int,
                  entry: Any) -> None:
        """Install a harvested seed, evicting the LRU past the cap."""
        self._warm.pop(wkey, None)
        self._warm[wkey] = (version, entry)
        while len(self._warm) > self._warm_cap:
            self._warm.pop(next(iter(self._warm)))

    def _prune_warm(self, key: str) -> None:
        """Drop every harvested seed for ``key`` (history severed)."""
        for wkey in [w for w in self._warm if w[0] == key]:
            del self._warm[wkey]

    def mutate(self, key: str, batch, *,
               idempotency_key: Optional[str] = None) -> Dict[str, Any]:
        """Apply a mutation batch to a resident graph, exactly once.

        ``batch`` is a :class:`~repro.graph.mutations.MutationBatch` or
        its ``to_doc()`` mapping.  The apply is copy-on-write: jobs
        pinned to the pre-mutation version keep computing against it
        (snapshot isolation) while submits after this call see the new
        version.  Idempotent by ``idempotency_key`` (defaulting to the
        batch's content fingerprint): re-sending an applied batch — a
        wire retry, a journal replay — answers from the mutation log
        without touching the graph.

        Before the old version's cached answers are invalidated they
        are harvested as warm-start seeds: the next submit of the same
        query on the mutated graph resumes from the previous fixpoint
        over the mutation's dirty frontier instead of iteration 0,
        when the algorithm declares an ``incremental`` policy.

        Returns a summary dict: graph, batch_id, from_version,
        version, changes, deduped.
        """
        if self.draining:
            raise ServeError("service is draining; mutation refused")
        if key not in self.store:
            raise ServeError(
                f"unknown graph {key!r}; loaded: {self.store.keys()}")
        if isinstance(batch, Mapping):
            batch = MutationBatch.from_doc(batch)
        if batch.is_empty:
            raise ServeError(f"empty mutation batch for graph {key!r}")
        bid = idempotency_key or batch.fingerprint()
        prior = self.store.log.applied(key, bid)
        if prior is not None:
            self.counts["deduped_mutations"] += 1
            return {"graph": key, "batch_id": bid,
                    "from_version": prior.from_version,
                    "version": prior.to_version,
                    "changes": prior.batch.num_changes,
                    "deduped": True}
        # applied (validated) before it is journaled: an unappliable
        # batch in the journal would wedge every recover().  It lands
        # durably before the success response; a crash in the gap loses
        # an apply the client was never told about, so its idempotent
        # resubmit re-applies after recover().  ``file`` is named once
        # the batch applied.
        made = self._apply({"rec": "mutation", "key": key, "batch_id": bid,
                            "file": None}, batch)
        self.counts["mutations"] += 1
        return {"graph": key, "batch_id": bid,
                "from_version": made["from_version"],
                "version": made["to_version"],
                "changes": batch.num_changes,
                "deduped": False}

    # -- submission ---------------------------------------------------------------------

    def submit(self, spec: JobSpec, *,
               idempotency_key: Optional[str] = None) -> Job:
        """Queue a job; raises if it could never run — or would
        overload the service (queue depth, per-tenant cap, unmeetable
        deadline): those refusals are *sheds*, recorded with reasons.

        ``idempotency_key`` makes the submit exactly-once: a key that
        already maps to a job (in memory, or replayed from the journal
        after a crash) returns that job instead of running a duplicate.
        The mapping is journaled *before* the submitted record, so a
        resubmit after any crash window dedupes correctly: either the
        original submit committed (key + record present, dedupe) or it
        never happened (orphan key dropped at replay, this submit runs).
        Shed submits never consume the key — the client may retry.

        Returns the live :class:`Job` record — the caller keeps it and
        reads result/latency off it after :meth:`run`.
        """
        if idempotency_key is not None:
            if not isinstance(idempotency_key, str) or not idempotency_key:
                raise ServeError(
                    f"idempotency_key must be a non-empty string, "
                    f"got {idempotency_key!r}")
            existing = self._idempotency.get(idempotency_key)
            if existing is not None:
                self.counts["deduped_submits"] += 1
                return self._jobs[existing]
        if spec.graph not in self.store:
            raise ServeError(
                f"unknown graph {spec.graph!r}; loaded: "
                f"{self.store.keys()}")
        job = Job(self._next_job_id, spec, submitted_ms=self.now_ms)
        self._next_job_id += 1
        if self.draining:
            reason = "service is draining"
        else:
            self.admission.check_feasible(
                job, self.store.get(spec.graph).nbytes)
            reason = self.admission.overload_reason(
                job, self.queue.jobs(), running=len(self.scheduler))
            if reason is None:
                reason = self.admission.deadline_reason(
                    job, self._estimate_wait_ms())
        if reason is not None:
            err = self.admission.shed(job, reason)
            self._apply({"rec": "shed", "tenant": spec.tenant,
                         "reason": reason})
            raise err
        if idempotency_key is not None:
            # write-ahead: the key lands before the submitted record;
            # replay drops the key if the crash split the pair
            self._apply({"rec": "idempotency", "key": idempotency_key,
                         "job_id": job.job_id})
        self._apply({"rec": "submitted", "job_id": job.job_id,
                     "spec": spec.to_doc(), "submitted_ms": job.submitted_ms,
                     "snapshot_version": self.store.get(spec.graph).version},
                    job)
        self.queue.push(job)
        return job

    def idempotent_job_id(self, key: str) -> Optional[int]:
        """The job id a client idempotency key maps to (None = fresh)."""
        return self._idempotency.get(key)

    def _estimate_wait_ms(self) -> Optional[float]:
        """Deterministic queue-wait estimate for deadline admission.

        EWMA of completed engine-run service times, scaled by the
        backlog over the concurrency the service can actually deliver.
        None until the first engine run completes — the service refuses
        nothing on zero history.
        """
        if self._ewma_service_ms is None:
            return None
        backlog = len(self.queue) + len(self.scheduler)
        if backlog == 0:
            return 0.0
        parallelism = self.admission.max_running or backlog
        return self._ewma_service_ms * backlog / max(1, min(parallelism,
                                                            backlog))

    def cancel(self, job_id: int) -> bool:
        """Cancel a pending or running job; True if anything changed."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id}")
        if job.finished:
            return False
        rj = self.scheduler.find(job_id)
        if job.state == PENDING:        # a pending job is always queued
            self.queue.cancel(job_id)
        elif rj is not None:
            rj.stepper.close()
        else:
            # a coalesced waiter: parked behind an in-flight identical
            # query (none: a job a suspending drain left in flight)
            ckey = next((k for k, waiters in self._waiters.items()
                         if job in waiters), None)
            if ckey is None:
                return False
            self._waiters[ckey].remove(job)
            if not self._waiters[ckey]:
                del self._waiters[ckey]
                self._waiter_parked_ms.pop(ckey, None)
            self.store._detach(job.spec.graph)
        self._apply({"rec": "cancelled", "job_id": job_id})
        if rj is not None:
            self._teardown(rj)
            if self._leads_waiters(rj):
                self._redispatch_waiters(rj.cache_key)
        return True

    # -- the scheduling loop ------------------------------------------------------------

    def step(self) -> bool:
        """One scheduling round: admit what fits, run one slice.

        Returns False when the service is idle (nothing pending,
        nothing running) — or already drained (a suspended service
        must not be driven again; recover its journal instead).
        """
        if self._drain_result is not None:
            return False
        self._check_waiter_timeouts()
        while True:
            job = self.queue.pop_admissible(self._usage(),
                                            self._graph_bytes(),
                                            now_ms=self.now_ms)
            if job is None:
                break
            if self._deadline_blown(job):
                self._apply({"rec": "failed", "job_id": job.job_id,
                             "error": "deadline exceeded while queued"})
                self._write_trace(job)
                continue
            self._dispatch(job)
        rj = self.scheduler.pick()
        if rj is not None:
            self._slice(rj)
            return True
        if self._waiters:
            # wedge guard: waiters parked but no leader is running
            # (it died without serving them) — recompute instead of
            # waiting forever
            for ckey in list(self._waiters):
                if not any(r.cache_key == ckey
                           for r in self.scheduler.running):
                    self._redispatch_waiters(ckey)
            if self.scheduler.running:
                return True
        if len(self.queue):
            # nothing running and nothing admissible: if the head-of-
            # queue blockage is a retry backoff window, the idle service
            # jumps its clock to the release instant (virtual time —
            # nothing else would advance it)
            release = self.queue.next_not_before(self.now_ms)
            if release is not None:
                self.now_ms = release
                return True
            raise ServeError(  # pragma: no cover - feasibility guard
                f"admission deadlock: {len(self.queue)} pending jobs, "
                f"none admissible ({self.queue.last_defer_reason})")
        return False

    def run(self) -> List[Job]:
        """Drive the service until idle; returns all finished jobs."""
        while self.step():
            pass
        return [j for j in self._jobs.values() if j.finished]

    def drain(self, *, reason: str = "drain",
              finish_running: bool = True) -> List[Job]:
        """Graceful shutdown: refuse new submissions, journal a
        clean-shutdown marker recording ``reason``, close the journal.

        With ``finish_running=True`` (the default, the file-mode
        lifecycle) running jobs are driven to completion and pending
        ones are shed; a subsequent :meth:`recover` sees the clean
        marker and rebuilds a fully terminal service (replay is a
        no-op).  With ``finish_running=False`` (the socket server's
        SIGTERM path) in-flight and pending jobs are *suspended*
        instead: their steppers close, no terminal record is journaled,
        and a restart's :meth:`recover` re-queues them to resume from
        their last durable checkpoint — clients reconnect and poll the
        same job ids.

        Idempotent and thread-safe: a second call (from a signal
        handler, a second thread, or after the journal already closed)
        returns the first call's result without shedding or journaling
        anything twice.
        """
        with self._lifecycle:
            if self._drain_result is not None:
                return self._drain_result
            self.draining = True
            if finish_running:
                for job in self.queue.jobs():
                    self.admission.shed(job, "pending at drain")
                    self._apply({"rec": "cancelled", "job_id": job.job_id,
                                 "error": "shed: service draining"})
                    self.queue.cancel(job.job_id)
                finished = self.run()
            else:
                # suspend: close the live steppers (releasing daemons
                # and graph attachments) but journal nothing terminal —
                # the in-flight jobs stay "running"/"pending" in the
                # journal so recover() re-queues and resumes them
                for rj in list(self.scheduler.running):
                    rj.stepper.close()
                    self._teardown(rj)
                finished = [j for j in self._jobs.values() if j.finished]
            self._apply({"rec": "shutdown", "clean": True, "reason": reason})
            if self.journal is not None:
                self.journal.close()
            self._drain_result = finished
            return finished

    # -- recovery -----------------------------------------------------------------------

    @classmethod
    def recover(cls, journal_path: str, *,
                graphs: Optional[Dict[str, Any]] = None,
                trace_dir: Optional[str] = None) -> "GraphService":
        """Rebuild a crashed service by replaying its journal.

        Builds the service from the newest ``service_start`` record, and
        :func:`~repro.serve.journal.replay_journal` hands every record to
        the ``_apply`` the live service wrote it through, writing off.
        Then every unfinished job is re-queued at its newest durable
        checkpoint (at iteration 0 if that sidecar is gone or
        unreadable).  Replay appends nothing (it cuts a torn final
        line), so recovering twice is a no-op.  ``graphs`` supplies
        graph objects for keys loaded without a dataset name;
        ``trace_dir`` overrides the journaled one.
        """
        records = read_journal(journal_path)
        line = max((i for i, doc in enumerate(records, 1)
                    if doc["rec"] == "service_start"), default=None)
        if line is None:
            raise ServeError(
                f"journal {journal_path!r} has no service_start record")
        # the journaled settings are constructor parameters; one a
        # journal lacks takes the default
        settings = {k: v for k, v in records[line - 1].items()
                    if k not in ("rec", "now_ms", "version", "cluster")}
        if trace_dir is not None:
            settings["trace_dir"] = trace_dir
        try:
            svc = cls(ClusterSpec(**_known_fields(
                ClusterSpec, records[line - 1].get("cluster") or {})),
                **settings)
        except (TypeError, ReproError) as exc:  # refused journaled values
            raise ServeError(
                f"journal {journal_path!r} line {line}: {exc}") from None
        svc.journal = JobJournal(journal_path)  # append mode
        replay_journal(records, svc, graphs)
        # a key whose submitted record the crash cut off is an orphan:
        # that submit never took effect
        svc._idempotency = {key: job_id
                            for key, job_id in svc._idempotency.items()
                            if job_id in svc._jobs}
        for job in svc.jobs():
            svc.counts["recovered"] += 1
            if job.state != DONE:
                # only a finished record carries a job's service time:
                # every other account restarts at zero
                svc._charge(job, -job.consumed_ms, -job.slices)
            if job.finished:
                continue
            job.state = PENDING
            try:
                job.resume_from = None if job.checkpoint_file is None \
                    else svc.journal.load_checkpoint(job.job_id,
                                                     job.checkpoint_file)
            except ServeError:  # unreadable: the job restarts at 0
                job.resume_from = None
            if job.resume_from is not None:
                svc.counts["resumed_from_checkpoint"] += 1
            svc.counts["recovered_jobs"] += 1
            svc.queue.push(job)
        svc.check_invariants()
        return svc

    def _apply(self, doc: Dict[str, Any], carry: Any = None, *,
               replayed: bool = False) -> Optional[Dict[str, Any]]:
        """Write journal record ``doc`` and apply it through its kind's
        transition; ``carry`` is what the live path holds beside it.

        A job record is written before it applies; ``graph_loaded`` and
        ``mutation`` apply first and are written with the fields the
        apply produced, so a failed load or batch is never journaled.
        :meth:`recover` passes ``replayed=True``: nothing is written,
        and the clock catches up to the record's.
        """
        kind = doc["rec"]
        fields = {k: v for k, v in doc.items() if k not in ("rec", "now_ms")}
        transition = self._TRANSITIONS[kind]
        if replayed:
            self.now_ms = max(self.now_ms, float(doc.get("now_ms", 0.0)))
            return transition(self, carry, **fields)
        writing = self.journal is not None and not self.journal.closed
        if kind in ("graph_loaded", "mutation"):
            made = transition(self, carry, **fields)
            if writing:
                self.journal.append(kind, self.now_ms, **{**fields, **made})
            return made
        if writing:
            self.journal.append(kind, self.now_ms, **fields)
        return transition(self, carry, **fields)

    # -- transitions --------------------------------------------------------------------
    # one per record kind, through _apply's table: ``carry`` is None on
    # replay, and the keyword parameters are the record's fields

    def _started(self, carry, **settings) -> None:
        """``service_start``: recover() builds the service from the
        newest one, and the constructor refuses a setting it lacks."""

    def _noted(self, carry, *, tenant=None, reason=None,
               clean=True) -> None:
        """``shed``, ``shutdown``: nothing a replay restores."""

    def _graph_loaded(self, graph, *, key: str, dataset=None, version=None):
        """``graph_loaded``: load, or replace a resident graph (replayed:
        the ``graphs=`` object recover() was given, else the dataset)."""
        if graph is None:
            if dataset is None:
                raise ServeError(
                    f"graph {key!r} was journaled without a dataset "
                    f"name; pass it via graphs={{{key!r}: <Graph>}}")
            graph = load_dataset(dataset)
        place = self.store.replace if key in self.store else self.store.load
        entry = place(key, graph)
        # every load severs the key's warm-start history: a reload
        # replaces the graph wholesale, and a fresh load after an
        # unload restarts versioning at 1 — a stale seed left behind
        # could chain-match the new incarnation's mutation log and
        # warm-start a monotone algorithm from an unrelated fixpoint
        # (an invalid bound it can never recover from)
        self._prune_warm(key)
        self._engines[key] = set()
        if entry.version > 1:
            self.cache.invalidate_graph(key)
        return {"version": entry.version}

    def _mutated(self, batch, *, key: str, batch_id: str, file: str,
                 from_version=None, to_version=None):
        """``mutation``: apply copy-on-write, harvest warm seeds, and
        drop the cached answers no snapshot can reach any more.  Live,
        the applied batch then lands in its sidecar; replayed, it is
        read back from it."""
        replayed = batch is None
        if replayed:
            batch = self.journal.load_mutation(file)
        pre_version = self.store.get(key).version
        # every engine a job asked for gets its partition carried
        # forward, built first if no job built it yet: the new version's
        # placement then follows from the journal (which engines were
        # asked for), not from which jobs ran before the mutation, and
        # replay derives the placement the live service did
        cluster = self.spec.build()
        for engine_cls in sorted(self._engines.get(key, ()),
                                 key=lambda c: c.name):
            self.store.ensure_partition(key, engine_cls, cluster)
        try:
            record = self.store.mutate(key, batch, batch_id)
        except GraphError:
            if not replayed:
                raise
            # defense in depth: a record from an older journal (or one
            # straddling an unjournaled replace) may no longer fit the
            # graph — skipping it beats wedging every future recover()
            self.counts["skipped_mutations"] += 1
            self._mutation_seq += 1
            return None
        self._mutation_seq += 1
        # harvest the pre-version's cached fixpoints as warm-start
        # seeds before invalidating them: a cached answer for version N
        # is exactly the seed an incremental re-run on N+1 wants.  Only
        # a converged run is a fixpoint: resuming a capped one would
        # stop wherever the cap falls, not where a cold run does
        for ckey, entry in self.cache.entries_for(key, pre_version):
            if entry.converged:
                self._warm_put((key, ckey[2], ckey[3]), pre_version, entry)
        # eager invalidation: dead-version entries could never be hit
        # again, so evict them now instead of letting them squat in the
        # LRU — keeping only versions still reachable (the new latest
        # plus anything pinned by an in-flight snapshot)
        keep = {record.to_version}
        keep.update(self.store.pinned_versions(key))
        self.cache.invalidate_graph(key, keep_versions=keep)
        if not replayed and self.journal is not None:
            file = self.journal.save_mutation(self._mutation_seq, batch)
        return {"from_version": record.from_version,
                "to_version": record.to_version, "file": file}

    def _submitted(self, job, *, job_id: int, spec: dict,
                   submitted_ms=0.0, snapshot_version=None) -> None:
        """``submitted``: register the job and pin its graph version
        (snapshot isolation: later mutations go into versions it never
        sees)."""
        if job is None:
            if job_id in self._jobs:
                raise ServeError(f"journal submits job #{job_id} twice")
            job = Job(job_id, JobSpec.from_doc(spec),
                      submitted_ms=float(submitted_ms))
        try:
            job.snapshot = self.store.snapshot(job.spec.graph,
                                               version=snapshot_version)
        except ServeError:
            # replayed: a version the graph history can no longer prove
            # (a skipped mutation) — fall back to the latest
            job.snapshot = self.store.snapshot(job.spec.graph)
        self._engines.setdefault(job.spec.graph, set()).add(
            job.spec.engine_cls())
        self._jobs[job_id] = job
        self._next_job_id = max(self._next_job_id, job_id + 1)

    def _keyed(self, carry, *, key: str, job_id: int) -> None:
        """``idempotency``: a client key names the job submitted next."""
        self._idempotency[key] = job_id

    def _admitted(self, carry, *, job_id: int, resume_iteration=0) -> None:
        """``admitted``: the job left the queue."""
        job = self._job_of(job_id)
        job.state = RUNNING
        if job.started_ms is None:
            job.started_ms = self.now_ms

    def _sliced(self, carry, *, job_id: int, iteration=None) -> None:
        """``slice``: one more quantum (its ms are charged as the engine
        spends them; replayed, the ``finished`` record settles them)."""
        self._charge(self._job_of(job_id), 0.0, 1)

    def _checkpointed(self, carry, *, job_id: int, iteration=None,
                      file=None) -> None:
        """``checkpointed``: ``file`` holds the job's durable resume
        point (recover() reads it once the records run out)."""
        self._job_of(job_id).checkpoint_file = file

    def _retried(self, carry, *, job_id: int, attempt: int,
                 backoff_ms=None, error=None, resume_iteration=None) -> None:
        """``retry``: the failed job goes back to pending."""
        job = self._job_of(job_id)
        job.retries = attempt
        job.state = PENDING

    def _finished(self, result, *, job_id: int, from_cache=False,
                  cache_key=None, file=None, consumed_ms=0.0) -> None:
        """``finished``: settle the account to the journaled ms (live,
        a computed job already holds them), publish the answer.
        Replayed, the answer is read back from ``file``; a job whose
        answer is gone or unreadable stays unfinished and recomputes."""
        job = self._job_of(job_id)
        if result is None:
            result = self._read_answer(job_id, file, job.snapshot.graph)
            if result is None:
                return
            file = result.file
        self._charge(job, consumed_ms - job.consumed_ms, int(from_cache))
        job.result = result
        job.result_file = file
        job.from_cache = from_cache
        job.state = DONE
        job.finished_ms = self.now_ms
        job.release_snapshot()
        self.ledger.finish(job.spec.tenant, from_cache=from_cache)
        if cache_key is None or from_cache or not job.spec.use_cache:
            return
        if isinstance(result, RunResult):
            self.cache.put(cache_key, result, file)
        else:  # replayed: the answer its sidecar holds
            self.cache.put_entry(tuple(cache_key), result)

    def _failed(self, carry, *, job_id: int, error=None) -> None:
        self._ended(job_id, FAILED, error)

    def _quarantined(self, carry, *, job_id: int, reason=None,
                     error=None) -> None:
        self._ended(job_id, QUARANTINED,
                    reason if error is None else error, reason)

    def _cancelled(self, carry, *, job_id: int, error=None) -> None:
        """``cancelled`` (a drain's shed names itself in ``error``)."""
        self._ended(job_id, CANCELLED, error)

    def _job_of(self, job_id: int) -> Job:
        """The job a record names (none before its ``submitted``)."""
        if job_id not in self._jobs:
            raise ServeError(f"journal records job #{job_id} before its "
                             f"submitted record")
        return self._jobs[job_id]

    #: record kind -> transition: the live path's and recover()'s one table
    _TRANSITIONS = {
        "service_start": _started, "graph_loaded": _graph_loaded,
        "mutation": _mutated, "submitted": _submitted,
        "idempotency": _keyed, "admitted": _admitted, "slice": _sliced,
        "checkpointed": _checkpointed, "retry": _retried,
        "finished": _finished, "failed": _failed,
        "quarantined": _quarantined, "cancelled": _cancelled,
        "shed": _noted, "shutdown": _noted,
    }

    def _charge(self, job: Job, ms: float, slices: int) -> None:
        """The one place that charges a job's account and its tenant's row."""
        job.consumed_ms += ms
        job.slices += slices
        self.ledger.charge(job.spec.tenant, ms, slices=slices)

    def _ended(self, job_id: int, state: str, error: Optional[str],
               quarantine_reason: Optional[str] = None) -> None:
        """A terminal state other than done."""
        job = self._job_of(job_id)
        job.state = state
        if error is not None:
            job.error = error
        job.quarantine_reason = quarantine_reason
        job.finished_ms = self.now_ms
        job.release_snapshot()

    def check_invariants(self) -> None:
        """Raise :class:`ServeError` naming the first broken invariant.

        * store pins balance the snapshots jobs hold, per version;
        * running jobs hold unreleased snapshots;
        * each tenant's ledger ms and slices are the sums of its jobs';
        * every done job's journaled sidecar exists;
        * the cache counts no key of a version it dropped;
        * no cache key is both resident and spilled, the resident tier
          fits the capacity, and no spilled entry holds values.

        :meth:`recover` ends with it; a violation there means the
        journal rebuilt a service the live one could never have been.
        """
        held: Dict[Tuple[str, int], int] = {}
        for job in self._jobs.values():
            snap = job.snapshot
            if snap is not None and not snap.released:
                pin = (snap.key, snap.version)
                held[pin] = held.get(pin, 0) + 1
        if held != self.store._pins:
            raise ServeError(f"store pins {self.store._pins} do not "
                             f"balance the jobs' snapshots {held}")
        for rj in self.scheduler.running:
            snap = rj.job.snapshot
            if snap is None or snap.released:
                raise ServeError(f"running job #{rj.job.job_id} holds "
                                 f"no live snapshot")
        spent: Dict[str, List[float]] = {}
        for job in self._jobs.values():
            row = spent.setdefault(job.spec.tenant, [0.0, 0])
            row[0] += job.consumed_ms
            row[1] += job.slices
        ledger = self.ledger.snapshot()
        for tenant in sorted(set(spent) | set(ledger)):
            ms, slices = spent.get(tenant, (0.0, 0))
            row = ledger.get(tenant, {"consumed_ms": 0.0, "slices": 0})
            if row["slices"] != slices or not math.isclose(
                    row["consumed_ms"], ms, rel_tol=1e-9, abs_tol=1e-5):
                raise ServeError(
                    f"tenant {tenant!r}: the ledger charged "
                    f"{row['consumed_ms']} ms over {row['slices']} "
                    f"slices, its jobs consumed {ms} ms over {slices}")
        if self.journal is not None:
            for job in self._jobs.values():
                if job.state == DONE and (
                        job.result_file is None or not os.path.exists(
                            os.path.join(self.journal.state_dir,
                                         job.result_file))):
                    raise ServeError(f"done job #{job.job_id}'s sidecar "
                                     f"{job.result_file!r} is missing")
        dead = self.cache.dead_counts()
        if dead:
            raise ServeError(f"the cache still counts keys of dropped "
                             f"versions: {dead}")
        self.cache.check_invariants()

    # -- internals ----------------------------------------------------------------------

    def _graph_bytes(self) -> Dict[str, int]:
        return {key: self.store.get(key).nbytes
                for key in self.store.keys()}

    def _usage(self) -> ResourceUsage:
        attached = {key for key in self.store.keys()
                    if self.store.get(key).attached}
        return ResourceUsage(
            memory_bytes=self.store.attached_bytes(),
            daemons=len(self.scheduler) * self.admission.daemons_per_job,
            running=len(self.scheduler),
            attached_graphs=attached)

    def _deadline_blown(self, job: Job) -> bool:
        deadline = job.spec.deadline_ms
        return (deadline is not None
                and self.now_ms - job.submitted_ms > deadline)

    def _dispatch(self, job: Job) -> None:
        """Start an admitted job: cache fast path or engine stepper."""
        spec = job.spec
        self._apply({"rec": "admitted", "job_id": job.job_id,
                     "resume_iteration": (job.resume_from.iteration
                                          if job.resume_from is not None
                                          else 0)})
        self.store._attach(spec.graph)
        snap = job.snapshot
        ckey = self.cache.key(spec.graph, snap.version, spec.algorithm,
                              spec.cache_params())
        if spec.use_cache:
            # a spilled answer is one sidecar read away
            hit = self.cache.get(ckey, lambda spilled: self._read_answer(
                job.job_id, spilled.file, snap.graph))
            if hit is not None:
                self._serve_from_cache(job, hit)
                return
            # singleflight: an identical query is already computing —
            # park this job and serve it from the leader's answer
            # instead of burning daemons on a duplicate run
            leader = next((r for r in self.scheduler.running
                           if r.cache_key == ckey and r.coalesce
                           and r.job.spec.use_cache), None)
            if leader is not None:
                self._waiters.setdefault(ckey, []).append(job)
                self._waiter_parked_ms.setdefault(ckey, self.now_ms)
                self.counts["coalesced"] += 1
                return
        runtime = spec.runtime
        if (self.journal is not None
                and runtime.checkpoint_interval == 0
                and self.journal_checkpoint_interval > 0):
            # journaling needs periodic checkpoints to have a durable
            # resume point; the override changes simulated cost only,
            # never values
            runtime = runtime.with_(
                checkpoint_interval=self.journal_checkpoint_interval)
        cluster = self.spec.build()
        middleware = GXPlug(cluster, runtime)
        engine = self.store.build_engine(spec.graph, spec.engine_cls(),
                                         cluster, middleware,
                                         version=snap.version)
        algorithm = spec.build_algorithm()
        if job.resume_from is None:
            # incremental recompute: seed from the fixpoint a mutation
            # harvested out of the cache, when the algorithm declares a
            # warm-start policy and the version delta chain is provable
            wkey = (spec.graph, spec.algorithm, ckey[3])
            seeded = self._warm.get(wkey)
            if seeded is not None:
                self._warm[wkey] = self._warm.pop(wkey)  # LRU touch
                seed_version, seed = seeded
                effects = self.store.effects_between(
                    spec.graph, seed_version, snap.version)
                if effects is not None:
                    warm = plan_warm_start(algorithm, seed.values,
                                           effects, snap.graph)
                    if warm is not None:
                        job.resume_from = warm
                        job.warm_started = True
                        self.counts["warm_starts"] += 1
        stepper = engine.run_stepwise(algorithm,
                                      spec.max_iterations,
                                      resume_from=job.resume_from)
        rj = RunningJob(job, middleware, engine, stepper, cache_key=ckey)
        self.scheduler.add(rj)

    def _slice(self, rj: RunningJob) -> None:
        """Resume one job for one superstep (or rollback) quantum."""
        job = rj.job
        try:
            event = next(rj.stepper)
        except StopIteration as stop:
            self._finish(rj, stop.value)
            return
        except ReproError as exc:
            self._fail(rj, exc)
            return
        self._run_for(rj, event.sim_ms)
        self._apply({"rec": "slice", "job_id": job.job_id,
                     "iteration": event.iteration})
        if (event.checkpointed and not event.converged
                and self.journal is not None):
            # a converged superstep's checkpoint is no resume point: the
            # run resumed from it would take one superstep too many
            self._journal_checkpoint(rj)
        if self._deadline_blown(job):
            # terminal, never retried: the budget is gone either way
            rj.stepper.close()
            self._fail(rj, ServeError(
                f"deadline exceeded: {self.now_ms - job.submitted_ms:.3f}"
                f" ms elapsed of {job.spec.deadline_ms:g} ms budget"),
                retryable=False)

    def _journal_checkpoint(self, rj: RunningJob):
        """The engine's newest checkpoint (None without one), journaled
        as the job's durable resume point when the service journals."""
        store = getattr(rj.engine, "checkpoint_store", None)
        ckpt = store.peek() if store is not None else None
        if ckpt is not None and self.journal is not None:
            name = self.journal.save_checkpoint(rj.job.job_id, ckpt)
            self._apply({"rec": "checkpointed", "job_id": rj.job.job_id,
                         "iteration": ckpt.iteration, "file": name})
        return ckpt

    def _check_waiter_timeouts(self) -> None:
        """Hung-leader handoff: a waiter group that has been parked
        longer than ``waiter_timeout_ms`` abandons its leader and goes
        back to the queue to recompute (the first waiter admitted
        becomes the new leader).  The abandoned leader keeps running,
        so the group is re-admitted rather than dispatched past
        ``max_running``."""
        if self.waiter_timeout_ms is None:
            return
        for ckey in list(self._waiters):
            parked = self._waiter_parked_ms.get(ckey)
            if parked is None \
                    or self.now_ms - parked <= self.waiter_timeout_ms:
                continue
            leader = next((r for r in self.scheduler.running
                           if r.cache_key == ckey and r.coalesce), None)
            if leader is not None:
                leader.coalesce = False
            self.counts["handoffs"] += 1
            del self._waiter_parked_ms[ckey]
            for waiter in self._waiters.pop(ckey):
                self.store._detach(waiter.spec.graph)
                waiter.state = PENDING
                self.queue.push(waiter)

    def _run_for(self, rj: RunningJob, ms: float) -> None:
        """Charge engine time: the job's account, its stride-scheduling
        clock and the service clock."""
        rj.charged_ms += ms
        rj.virtual_ms += ms
        self.now_ms += ms
        self._charge(rj.job, ms, 0)

    def _read_answer(self, job_id: int, file: Optional[str], graph):
        """A journaled answer read back from its result sidecar, or None
        when the file is gone, unreadable, or holds no answer for
        ``graph`` (a values array of another length): the job, or the
        lookup, recomputes instead."""
        try:
            answer = self.journal.load_result(job_id, file)
        except ServeError:
            return None
        if answer is None or answer.values.shape[:1] != (
                graph.num_vertices,):
            return None
        return answer

    def _serve_from_cache(self, job: Job, hit) -> None:
        """Complete an admitted job from a cached answer."""
        self.now_ms += CACHE_LOOKUP_MS
        consumed = job.consumed_ms + CACHE_LOOKUP_MS
        self.store._detach(job.spec.graph)
        # the hit names the sidecar its answer already lives in: the
        # job recovers from that file even after the entry is evicted
        # (sidecars are never deleted), so no copy is written
        self._apply({"rec": "finished", "job_id": job.job_id,
                     "from_cache": True, "cache_key": None, "file": hit.file,
                     "consumed_ms": consumed}, hit)
        self._write_trace(job)

    def _finish(self, rj: RunningJob, result) -> None:
        job = rj.job
        # charge what the stepper never yielded as an event: setup
        # (connect) before the first superstep and any trailing drain
        # after the last — job.consumed_ms must equal result.total_ms
        extra = result.total_ms - rj.charged_ms
        if extra > 0:
            # part of the last slice, not a slice of its own
            self._run_for(rj, extra)
        job.fault_report = rj.middleware.fault_report(result)
        file = None
        if self.journal is not None:
            # before the cache entry: its hits journal this file
            file = self.journal.save_result(
                job.job_id, result.values, result.iterations,
                result.converged, result.total_ms, result.engine_name,
                result.algorithm_name)
        ewma = self._ewma_service_ms
        self._ewma_service_ms = (result.total_ms if ewma is None
                                 else 0.5 * result.total_ms + 0.5 * ewma)
        self._teardown(rj)
        self._apply({"rec": "finished", "job_id": job.job_id,
                     "from_cache": False,
                     "cache_key": (rj.cache_key if job.spec.use_cache
                                   else None),
                     "file": file, "consumed_ms": job.consumed_ms}, result)
        self._write_trace(job)
        if job.spec.use_cache:
            # the answer is published: serve the query's parked waiters
            for waiter in self._waiters.pop(rj.cache_key, []):
                self._serve_from_cache(waiter, self.cache.get(rj.cache_key))
            self._waiter_parked_ms.pop(rj.cache_key, None)

    def _fail(self, rj: RunningJob, exc: ReproError, *,
              retryable: bool = True) -> None:
        """A running job's engine raised: retry, quarantine, or fail.

        With a retry budget (``spec.max_retries``), the job goes back
        to the queue seeded with its last checkpoint and an exponential
        backoff window; a job that exhausts the budget is quarantined
        as poison — recorded reason, never retried again.  Deadline
        failures are terminal regardless (``retryable=False``).
        """
        job = rj.job
        reason = f"{type(exc).__name__}: {exc}"
        job.fault_report = rj.middleware.fault_report()
        if retryable and job.retries < job.spec.max_retries:
            attempt = job.retries + 1
            self.counts["retries"] += 1
            backoff = job.spec.retry_backoff_ms * (2 ** (attempt - 1))
            ckpt = self._journal_checkpoint(rj)
            if ckpt is not None:
                job.resume_from = ckpt
            job.not_before_ms = self.now_ms + backoff
            self._apply({"rec": "retry", "job_id": job.job_id,
                         "attempt": attempt, "backoff_ms": backoff,
                         "error": reason,
                         "resume_iteration": (ckpt.iteration
                                              if ckpt is not None else 0)})
            self._teardown(rj)
            self.queue.push(job)
            # coalesced waiters stay parked: the retry is still the
            # one in-flight computation of their query
            return
        if retryable and job.spec.max_retries > 0:
            poison = (f"poison: failed {job.retries + 1} times "
                      f"(budget {job.spec.max_retries}); last error: {reason}")
            self._apply({"rec": "quarantined", "job_id": job.job_id,
                         "reason": poison, "error": reason})
        else:
            self._apply({"rec": "failed", "job_id": job.job_id,
                         "error": reason})
        self._teardown(rj)
        self._write_trace(job)
        if self._leads_waiters(rj):
            self._redispatch_waiters(rj.cache_key)

    @staticmethod
    def _leads_waiters(rj: RunningJob) -> bool:
        """Only a query's coalescing leader owns its parked waiters: a
        cache-bypassing run of the same query, or a leader its waiters
        already abandoned, ends without touching them."""
        return rj.coalesce and rj.job.spec.use_cache

    def _redispatch_waiters(self, cache_key) -> None:
        """The leader died; its coalesced waiters compute themselves.

        The first re-dispatched waiter becomes the new leader, the
        rest coalesce behind it again.
        """
        waiters = self._waiters.pop(cache_key, [])
        self._waiter_parked_ms.pop(cache_key, None)
        for waiter in waiters:
            self.store._detach(waiter.spec.graph)
            self._dispatch(waiter)

    def _teardown(self, rj: RunningJob) -> None:
        self.scheduler.remove(rj)
        rj.middleware.disconnect_all()
        self.store._detach(rj.job.spec.graph)

    def _write_trace(self, job: Job) -> None:
        if self.trace_dir is None:
            return
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, f"job-{job.job_id}.json")
        if isinstance(job.result, RunResult):
            write_json(job.result, path,
                       cluster_spec=self.spec.to_dict(),
                       job=job.describe())
        else:
            doc = {"job": job.describe(),
                   "cluster_spec": self.spec.to_dict()}
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f, indent=2)

    # -- observability ------------------------------------------------------------------

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[Job]:
        out = [j for j in self._jobs.values()
               if (tenant is None or j.spec.tenant == tenant)
               and (state is None or j.state == state)]
        return sorted(out, key=lambda j: j.job_id)

    def job(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServeError(f"unknown job id {job_id}") from None

    def latency_percentiles(self, tenant: Optional[str] = None
                            ) -> Dict[str, float]:
        """p50/p99 submit-to-finish latency over completed jobs."""
        lats = [j.latency_ms for j in self.jobs(tenant, DONE)]
        if not lats:
            return {"p50": 0.0, "p99": 0.0, "count": 0}
        arr = np.asarray(lats)
        return {"p50": float(np.percentile(arr, 50)),
                "p99": float(np.percentile(arr, 99)),
                "count": len(lats)}

    def metrics(self) -> Dict[str, Any]:
        """The serving layer's one grouped read: the service's counts,
        the queue, cache and store reads, the tenant ledger, latency
        percentiles, and the recovery block (``recovered``: jobs the
        last :meth:`recover` restored, terminal and re-queued)."""
        by_state: Dict[str, int] = {}
        for j in self._jobs.values():
            by_state[j.state] = by_state.get(j.state, 0) + 1
        counts = dict(self.counts)
        return {
            "now_ms": round(self.now_ms, 6),
            "jobs": by_state,
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "draining": self.draining,
            "recovery": {"recovered": counts.pop("recovered"),
                         "requeued": counts["recovered_jobs"],
                         "resumed": counts["resumed_from_checkpoint"],
                         "handoffs": counts["handoffs"]},
            **counts,
            "store": self.store.stats(),
            "tenants": self.ledger.snapshot(),
            "latency": self.latency_percentiles(),
        }
