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
lifecycle transition is appended to a write-ahead journal
(:mod:`repro.serve.journal`) and applied through one transition method
per record kind, and :meth:`GraphService.recover` rebuilds a crashed
service by applying the same methods to the records it reads —
finished jobs re-serve from the result cache, in-flight jobs resume
from their last durable checkpoint via the engines'
``run_stepwise(resume_from=...)`` entry point instead of recomputing
from iteration 0.  Per-job deadlines, bounded checkpoint-resume
retries with quarantine, overload shedding and a :meth:`drain`
lifecycle round out the resilience story.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..bench.trace import write_json
from ..core.config import ClusterSpec, check_count
from ..core.middleware import GXPlug
from ..engines.base import RunResult
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
)
from .journal import JOURNAL_VERSION, JobJournal, read_journal, replay_journal
from .queue import AdmissionControl, JobQueue, ResourceUsage
from .scheduler import FairShareLedger, FairShareScheduler, RunningJob
from .store import GraphStore


class GraphService:
    """Multi-tenant serving over one simulated cluster description."""

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
        budget_bytes = (None if memory_budget_mb is None
                        else int(memory_budget_mb * 1024 * 1024))
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
        self.coalesced = 0
        #: singleflight hand-offs after a hung leader timed out
        self.handoffs = 0
        #: checkpoint-resume retries performed
        self.retries = 0
        #: True once :meth:`drain` started — new submissions are shed
        self.draining = False
        #: client idempotency key -> job id (exactly-once submits);
        #: journaled, so dedupe survives a crash + :meth:`recover`
        self._idempotency: Dict[str, int] = {}
        #: submits answered from the idempotency map instead of run
        self.deduped_submits = 0
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
        #: jobs dispatched seeded from a previous fixpoint
        self.warm_starts = 0
        #: mutation batches applied (fresh) / answered from the log
        self.mutations_applied = 0
        self.deduped_mutations = 0
        #: journaled mutation batches :meth:`recover` could not re-apply
        self.skipped_mutations = 0
        self._mutation_seq = 0
        # drain/recover lifecycle guard: drain() must be idempotent and
        # safe to call from a signal handler or a second thread while
        # the serving loop (or a recovery) is mid-flight
        self._lifecycle = threading.RLock()
        self._drain_result: Optional[List[Job]] = None
        #: simulated ms a job waits for a singleflight leader before the
        #: group abandons it and recomputes (None = wait forever)
        if waiter_timeout_ms is not None and waiter_timeout_ms <= 0:
            raise ServeError(
                f"waiter_timeout_ms must be positive, "
                f"got {waiter_timeout_ms}")
        self.waiter_timeout_ms = waiter_timeout_ms
        # EWMA of completed engine-run service times, feeding the
        # deadline-aware admission's queue-wait estimate
        self._ewma_service_ms: Optional[float] = None
        #: checkpoint interval forced onto jobs that disabled
        #: checkpointing, when journaling — without a checkpoint there
        #: is nothing to resume from (costs change, values never do)
        self.journal_checkpoint_interval = journal_checkpoint_interval
        #: jobs re-queued by the last :meth:`recover` (observability)
        self.recovered_jobs = 0
        self.resumed_from_checkpoint = 0
        #: terminal jobs the last :meth:`recover` restored verbatim
        self.recovered_terminal = 0
        self.journal: Optional[JobJournal] = None
        if journal is not None:
            self.journal = JobJournal(journal)
            self.journal.append(
                "service_start", self.now_ms,
                version=JOURNAL_VERSION,
                cluster=self.spec.to_dict(),
                memory_budget_mb=memory_budget_mb,
                daemon_budget=daemon_budget,
                max_running=max_running,
                cache_entries=cache_entries,
                trace_dir=trace_dir,
                max_queue_depth=max_queue_depth,
                max_pending_per_tenant=max_pending_per_tenant,
                waiter_timeout_ms=waiter_timeout_ms,
                journal_checkpoint_interval=journal_checkpoint_interval)

    def _journal_append(self, rec: str, **fields: Any) -> None:
        if self.journal is not None and not self.journal.closed:
            self.journal.append(rec, self.now_ms, **fields)

    # -- graphs -------------------------------------------------------------------------

    def load_graph(self, key: str, graph=None, *,
                   dataset: Optional[str] = None):
        """Load a graph, or replace a resident one wholesale.

        A replace is a new store version: jobs already submitted keep
        their pinned snapshot, later submits see the new graph, and
        cached answers for the key are invalidated.
        """
        # applied before it is journaled: the record carries the
        # version the apply produced
        entry = self._graph_loaded(key, self.store._resolve(graph, dataset))
        self._journal_append("graph_loaded", key=key, dataset=dataset,
                             version=entry.version)
        return entry

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
            self.deduped_mutations += 1
            return {"graph": key, "batch_id": bid,
                    "from_version": prior.from_version,
                    "version": prior.to_version,
                    "changes": prior.batch.num_changes,
                    "deduped": True}
        # apply first, journal second: store.mutate() runs apply-time
        # validation (out-of-range ids, remove/update of a nonexistent
        # edge raise GraphError), and a batch that cannot apply must
        # never reach the journal — a journaled unappliable batch would
        # re-raise on every recover() replay and wedge recovery forever
        record = self._mutated(key, batch, bid)
        self.mutations_applied += 1
        if self.journal is not None and not self.journal.closed:
            # the applied batch lands durably before the success
            # response reaches the caller; a crash in the gap loses an
            # apply the client was never told about, so its idempotent
            # resubmit re-applies cleanly after recover()
            name = self.journal.save_mutation(self._mutation_seq, batch)
            self._journal_append("mutation", key=key, batch_id=bid,
                                 from_version=record.from_version,
                                 to_version=record.to_version, file=name)
        return {"graph": key, "batch_id": bid,
                "from_version": record.from_version,
                "version": record.to_version,
                "changes": record.batch.num_changes,
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
                self.deduped_submits += 1
                return self._jobs[existing]
        if spec.graph not in self.store:
            raise ServeError(
                f"unknown graph {spec.graph!r}; loaded: "
                f"{self.store.keys()}")
        job = Job(self._next_job_id, spec, submitted_ms=self.now_ms)
        self._next_job_id += 1
        if self.draining:
            err = self.admission.shed(job, "service is draining")
            self._journal_append("shed", tenant=spec.tenant,
                                 reason="service is draining")
            raise err
        self.admission.check_feasible(job, self.store.get(spec.graph).nbytes)
        reason = self.admission.overload_reason(
            job, self.queue.jobs(), running=len(self.scheduler))
        if reason is None:
            reason = self.admission.deadline_reason(
                job, self._estimate_wait_ms())
        if reason is not None:
            err = self.admission.shed(job, reason)
            self._journal_append("shed", tenant=spec.tenant, reason=reason)
            raise err
        if idempotency_key is not None:
            # write-ahead: the key lands before the submitted record;
            # replay drops the key if the crash split the pair
            self._journal_append("idempotency", key=idempotency_key,
                                 job_id=job.job_id)
            self._idempotency[idempotency_key] = job.job_id
        version = self.store.get(spec.graph).version
        self._journal_append("submitted", job_id=job.job_id,
                             spec=spec.to_doc(),
                             submitted_ms=job.submitted_ms,
                             snapshot_version=version)
        self._submitted(job, version)
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
        self._journal_append("cancelled", job_id=job_id)
        self._ended(job, CANCELLED)
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
                self._fail_before_start(job, "deadline exceeded while "
                                             "queued")
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
                    self.admission.sheds += 1
                    self.admission.shed_reasons.append(
                        f"job #{job.job_id} ({job.spec.tenant}): "
                        f"pending at drain")
                    self._journal_append("cancelled", job_id=job.job_id)
                    self.queue.cancel(job.job_id)
                    self._ended(job, CANCELLED,
                                error="shed: service draining")
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
            if self.journal is not None and not self.journal.closed:
                self.journal.append("shutdown", self.now_ms, clean=True,
                                    reason=reason)
                self.journal.close()
            self._drain_result = finished
            return finished

    # -- recovery -----------------------------------------------------------------------

    @classmethod
    def recover(cls, journal_path: str, *,
                graphs: Optional[Dict[str, Any]] = None,
                trace_dir: Optional[str] = None) -> "GraphService":
        """Rebuild a crashed service by replaying its journal.

        Constructs the service from the journal's ``service_start``
        record (cluster spec and budgets), then applies every record
        through the transition the live service ran when it appended
        it (:func:`~repro.serve.journal.replay_journal`): graphs load
        and mutate in journal order, jobs pin their journaled snapshot
        versions, finished answers re-enter the result cache from their
        npz sidecars.  When the records run out, every job the journal
        left unfinished is re-queued seeded with its newest durable
        checkpoint, so :meth:`run` continues it from the last journaled
        superstep instead of iteration 0.

        Replay appends nothing to the journal, so recovering the same
        journal twice (or recovering a cleanly drained one) is a no-op:
        identical state, untouched file.  ``graphs`` supplies graph
        objects for keys that were loaded without a dataset name;
        ``trace_dir`` overrides the journaled one.
        """
        records = read_journal(journal_path)
        starts = [doc for doc in records if doc["rec"] == "service_start"]
        if not starts:
            raise ServeError(
                f"journal {journal_path!r} has no service_start record")
        meta = starts[-1]
        # journaled settings that name a constructor parameter; one a
        # journal lacks takes the constructor's default
        params = inspect.signature(cls).parameters
        settings = {k: v for k, v in meta.items() if k in params}
        if trace_dir is not None:
            settings["trace_dir"] = trace_dir
        svc = cls(ClusterSpec(**meta["cluster"]), **settings)
        svc.journal = JobJournal(journal_path)  # append mode: writes nothing
        replay_journal(records, svc, graphs)
        # a key whose submitted record the crash cut off is an orphan:
        # that submit never took effect
        svc._idempotency = {key: job_id
                            for key, job_id in svc._idempotency.items()
                            if job_id in svc._jobs}
        for job in svc.jobs():
            if job.state != DONE:
                # only a finished record carries a job's service time:
                # every other account restarts at zero
                svc._charge(job, -job.consumed_ms, -job.slices)
            if job.finished:
                svc.recovered_terminal += 1
                continue
            job.state = PENDING
            job.resume_from = svc.journal.load_checkpoint(job.job_id)
            if job.resume_from is not None:
                svc.resumed_from_checkpoint += 1
            svc.recovered_jobs += 1
            svc.queue.push(job)
        svc.check_invariants()
        return svc

    def _replay(self, doc: Dict[str, Any],
                graphs: Optional[Dict[str, Any]]) -> None:
        """Apply one journal record through its live transition.

        The sidecars supply what the live path held in memory: the
        graph (``graphs`` or the dataset name), the mutation batch, the
        finished answer.  Engine work is no transition, so ``admitted``
        and ``slice`` only record progress.
        """
        rec = doc["rec"]
        self.now_ms = max(self.now_ms, float(doc.get("now_ms", 0.0)))
        if rec == "graph_loaded":
            key = doc["key"]
            if graphs is not None and key in graphs:
                graph = graphs[key]
            elif doc.get("dataset") is not None:
                graph = load_dataset(doc["dataset"])
            else:
                raise ServeError(
                    f"graph {key!r} was journaled without a dataset "
                    f"name; pass it via graphs={{{key!r}: <Graph>}}")
            self._graph_loaded(key, graph)
        elif rec == "mutation":
            batch = self.journal.load_mutation(doc["file"])
            try:
                self._mutated(doc["key"], batch, doc["batch_id"])
            except GraphError:
                # defense in depth: the live path only journals batches
                # that already applied, but a record from an older
                # journal (or one straddling an unjournaled replace) may
                # no longer fit the graph — skipping it beats wedging
                # every future recover()
                self.skipped_mutations += 1
                self._mutation_seq += 1
        elif rec == "idempotency":
            self._idempotency[doc["key"]] = doc["job_id"]
        elif rec == "submitted":
            if doc["job_id"] in self._jobs:
                raise ServeError(
                    f"journal submits job #{doc['job_id']} twice")
            job = Job(doc["job_id"], JobSpec.from_doc(doc["spec"]),
                      submitted_ms=float(doc.get("submitted_ms", 0.0)))
            try:
                self._submitted(job, doc.get("snapshot_version"))
            except ServeError:
                # a version the graph history can no longer prove (a
                # skipped mutation) — fall back to the latest
                self._submitted(job, None)
        elif rec in ("service_start", "checkpointed", "shed", "shutdown"):
            pass
        else:
            job = self._jobs.get(doc["job_id"])
            if job is None:
                raise ServeError(
                    f"journal records {rec!r} for job #{doc['job_id']} "
                    f"before its submitted record")
            if rec == "admitted":
                self._admitted(job)
            elif rec == "slice":
                self._charge(job, 0.0, 1)
            elif rec == "retry":
                self._retried(job, int(doc["attempt"]))
            elif rec == "finished":
                from_cache = bool(doc.get("from_cache", False))
                result = self._read_answer(job.job_id, doc.get("file"),
                                           job.snapshot.graph)
                key = doc.get("cache_key")
                if result is not None:  # no answer: the job recomputes
                    self._finished(
                        job, result, result.file, from_cache=from_cache,
                        cache_key=(tuple(key) if key is not None
                                   and job.spec.use_cache
                                   and not from_cache else None),
                        consumed_ms=float(doc.get("consumed_ms", 0.0)))
            elif rec == "failed":
                self._ended(job, FAILED, error=doc.get("error"))
            elif rec == "quarantined":
                self._ended(job, QUARANTINED,
                            error=doc.get("error", doc.get("reason")),
                            quarantine_reason=doc.get("reason"))
            elif rec == "cancelled":
                self._ended(job, CANCELLED)
            else:
                raise ServeError(f"unknown journal record kind {rec!r}")

    # -- transitions --------------------------------------------------------------------
    #
    # One method per state-changing journal record.  The live path
    # appends the record, then applies it here — except graph_loaded
    # and mutation, which carry the version their apply produced and
    # must never journal a graph that failed to load or a batch that
    # failed to apply.  recover() applies the same methods to the
    # records it reads (:meth:`_replay`).

    def _graph_loaded(self, key: str, graph):
        """``graph_loaded``: load, or replace a resident graph."""
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
        return entry

    def _mutated(self, key: str, batch: MutationBatch, batch_id: str):
        """``mutation``: apply copy-on-write, harvest warm seeds, and
        drop the cached answers no snapshot can reach any more."""
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
        record = self.store.mutate(key, batch, batch_id)
        self._mutation_seq += 1
        # harvest the pre-version's cached fixpoints as warm-start
        # seeds before invalidating them: a cached answer for version N
        # is exactly the seed an incremental re-run on N+1 wants
        for ckey, entry in self.cache.entries_for(key, pre_version):
            self._warm_put((key, ckey[2], ckey[3]), pre_version, entry)
        # eager invalidation: dead-version entries could never be hit
        # again, so evict them now instead of letting them squat in the
        # LRU — keeping only versions still reachable (the new latest
        # plus anything pinned by an in-flight snapshot)
        keep = {record.to_version}
        keep.update(self.store.pinned_versions(key))
        self.cache.invalidate_graph(key, keep_versions=keep)
        return record

    def _submitted(self, job: Job, version: Optional[int]) -> None:
        """``submitted``: register the job and pin its graph version.

        Snapshot isolation: the job computes against this version for
        its whole lifetime — mutations landing after it go into
        versions the job never sees.
        """
        job.snapshot = self.store.snapshot(job.spec.graph, version=version)
        self._engines.setdefault(job.spec.graph, set()).add(
            job.spec.engine_cls())
        self._jobs[job.job_id] = job
        self._next_job_id = max(self._next_job_id, job.job_id + 1)

    def _admitted(self, job: Job) -> None:
        """``admitted``: the job left the queue."""
        job.state = RUNNING
        if job.started_ms is None:
            job.started_ms = self.now_ms

    def _charge(self, job: Job, ms: float, slices: int) -> None:
        """``slice``: the one method that charges a job's account and
        its tenant's ledger row (replay charges a slice 0 ms until the
        ``finished`` record settles the account)."""
        job.consumed_ms += ms
        job.slices += slices
        self.ledger.charge(job.spec.tenant, ms, slices=slices)

    def _retried(self, job: Job, attempt: int) -> None:
        """``retry``: the failed job goes back to pending."""
        job.retries = attempt
        job.state = PENDING

    def _finished(self, job: Job, result, file: Optional[str], *,
                  from_cache: bool, cache_key, consumed_ms: float) -> None:
        """``finished``: settle the account to the journaled ms (live,
        a computed job already holds them), publish the answer."""
        self._charge(job, consumed_ms - job.consumed_ms, int(from_cache))
        job.result = result
        job.result_file = file
        job.from_cache = from_cache
        job.state = DONE
        job.finished_ms = self.now_ms
        job.release_snapshot()
        self.ledger.finish(job.spec.tenant, from_cache=from_cache)
        if cache_key is None:
            return
        if isinstance(result, RunResult):
            self.cache.put(cache_key, result, file)
        else:  # replayed: the answer its sidecar holds
            self.cache.put_entry(cache_key, result)

    def _ended(self, job: Job, state: str, *, error: Optional[str] = None,
               quarantine_reason: Optional[str] = None) -> None:
        """``failed`` / ``quarantined`` / ``cancelled``."""
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

    def _fail_before_start(self, job: Job, reason: str) -> None:
        """Terminal failure of a job that never (re)dispatched."""
        self._journal_append("failed", job_id=job.job_id, error=reason)
        self._ended(job, FAILED, error=reason)
        self._write_trace(job)

    def _dispatch(self, job: Job) -> None:
        """Start an admitted job: cache fast path or engine stepper."""
        spec = job.spec
        self._journal_append(
            "admitted", job_id=job.job_id,
            resume_iteration=(job.resume_from.iteration
                              if job.resume_from is not None else 0))
        self._admitted(job)
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
                self.coalesced += 1
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
                        self.warm_starts += 1
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
        self._journal_append("slice", job_id=job.job_id,
                             iteration=event.iteration)
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
            self._journal_append("checkpointed", job_id=rj.job.job_id,
                                 iteration=ckpt.iteration, file=name)
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
            self.handoffs += 1
            del self._waiter_parked_ms[ckey]
            for waiter in self._waiters.pop(ckey):
                self.store._detach(waiter.spec.graph)
                waiter.state = PENDING
                self.queue.push(waiter)

    def _run_for(self, rj: RunningJob, ms: float, slices: int = 1) -> None:
        """Charge engine time: the job's account, its stride-scheduling
        clock and the service clock."""
        rj.charged_ms += ms
        rj.virtual_ms += ms
        self.now_ms += ms
        self._charge(rj.job, ms, slices)

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
        self._journal_append("finished", job_id=job.job_id,
                             from_cache=True, cache_key=None,
                             file=hit.file, consumed_ms=consumed)
        self._finished(job, hit, hit.file, from_cache=True, cache_key=None,
                       consumed_ms=consumed)
        self._write_trace(job)

    def _finish(self, rj: RunningJob, result) -> None:
        job = rj.job
        # charge what the stepper never yielded as an event: setup
        # (connect) before the first superstep and any trailing drain
        # after the last — job.consumed_ms must equal result.total_ms
        extra = result.total_ms - rj.charged_ms
        if extra > 0:
            # part of the last slice, not a slice of its own
            self._run_for(rj, extra, slices=0)
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
        cache_key = rj.cache_key if job.spec.use_cache else None
        self._journal_append("finished", job_id=job.job_id,
                             from_cache=False, cache_key=cache_key,
                             file=file, consumed_ms=job.consumed_ms)
        self._finished(job, result, file, from_cache=False,
                       cache_key=cache_key, consumed_ms=job.consumed_ms)
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
            self.retries += 1
            backoff = job.spec.retry_backoff_ms * (2 ** (attempt - 1))
            ckpt = self._journal_checkpoint(rj)
            if ckpt is not None:
                job.resume_from = ckpt
            job.not_before_ms = self.now_ms + backoff
            self._journal_append(
                "retry", job_id=job.job_id, attempt=attempt,
                backoff_ms=backoff, error=reason,
                resume_iteration=(ckpt.iteration if ckpt is not None
                                  else 0))
            self._retried(job, attempt)
            self._teardown(rj)
            self.queue.push(job)
            # coalesced waiters stay parked: the retry is still the
            # one in-flight computation of their query
            return
        if retryable and job.spec.max_retries > 0:
            state, poison = QUARANTINED, (
                f"poison: failed {job.retries + 1} times "
                f"(budget {job.spec.max_retries}); last error: {reason}")
            self._journal_append("quarantined", job_id=job.job_id,
                                 reason=poison, error=reason)
        else:
            state, poison = FAILED, None
            self._journal_append("failed", job_id=job.job_id,
                                 error=reason)
        self._ended(job, state, error=reason, quarantine_reason=poison)
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

    def recovery_stats(self) -> Dict[str, int]:
        """Recovery counters for ``serve --json`` and the wire's
        ``stats`` frame: jobs restored by the last :meth:`recover`
        (terminal + re-queued), in-flight jobs re-queued, checkpoint
        resumes, and singleflight hung-leader handoffs."""
        return {
            "recovered": self.recovered_terminal + self.recovered_jobs,
            "requeued": self.recovered_jobs,
            "resumed": self.resumed_from_checkpoint,
            "handoffs": self.handoffs,
        }

    def metrics(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for j in self._jobs.values():
            by_state[j.state] = by_state.get(j.state, 0) + 1
        return {
            "now_ms": round(self.now_ms, 6),
            "jobs": by_state,
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "coalesced": self.coalesced,
            "handoffs": self.handoffs,
            "retries": self.retries,
            "draining": self.draining,
            "deduped_submits": self.deduped_submits,
            "mutations": self.mutations_applied,
            "deduped_mutations": self.deduped_mutations,
            "skipped_mutations": self.skipped_mutations,
            "warm_starts": self.warm_starts,
            "recovered_jobs": self.recovered_jobs,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            # the recovery story in one block: jobs restored from the
            # journal (terminal + re-queued), re-queued in-flight jobs,
            # checkpoint resumes, and singleflight hung-leader handoffs
            "recovery": self.recovery_stats(),
            "store": self.store.stats(),
            "tenants": self.ledger.snapshot(),
            "latency": self.latency_percentiles(),
        }
