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
(:mod:`repro.serve.journal`) *before* the service acts on it, and
:meth:`GraphService.recover` rebuilds a crashed service by idempotent
replay — finished jobs re-serve from the result cache, in-flight jobs
resume from their last durable checkpoint via the engines'
``run_stepwise(resume_from=...)`` entry point instead of recomputing
from iteration 0.  Per-job deadlines, bounded checkpoint-resume
retries with quarantine, overload shedding and a :meth:`drain`
lifecycle round out the resilience story.
"""

from __future__ import annotations

import inspect
import json
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
        #: (seed version, CachedResult).  In-memory only — a crash
        #: loses the seeds and the recovered service falls back to
        #: cold starts; values are unaffected either way.  Bounded as a
        #: small LRU (see :meth:`_warm_put`) and pruned whenever a
        #: key's mutation history is severed, so stale seeds can never
        #: chain-match a reloaded incarnation of the key.
        self._warm: Dict[Tuple[str, str, str], Tuple[int, Any]] = {}
        self._warm_cap = max(cache_entries, 8)
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
        place = self.store.replace if key in self.store else self.store.load
        entry = place(key, graph, dataset=dataset)
        # every load severs the key's warm-start history: a reload
        # replaces the graph wholesale, and a fresh load after an
        # unload restarts versioning at 1 — a stale seed left behind
        # could chain-match the new incarnation's mutation log and
        # warm-start a monotone algorithm from an unrelated fixpoint
        # (an invalid bound it can never recover from)
        self._prune_warm(key)
        if entry.version > 1:
            self.cache.invalidate_graph(key)
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
        pre_version = self.store.get(key).version
        # apply first, journal second: store.mutate() runs apply-time
        # validation (out-of-range ids, remove/update of a nonexistent
        # edge raise GraphError), and a batch that cannot apply must
        # never reach the journal — a journaled unappliable batch would
        # re-raise on every recover() replay and wedge recovery forever
        record = self.store.mutate(key, batch, bid)
        self.mutations_applied += 1
        # harvest the pre-version's cached fixpoints as warm-start
        # seeds before invalidating them: a cached answer for version N
        # is exactly the seed an incremental re-run on N+1 wants
        for ckey, entry in self.cache.entries_for(key, pre_version):
            self._warm_put((key, ckey[2], ckey[3]), pre_version, entry)
        if self.journal is not None and not self.journal.closed:
            # the applied batch lands durably before the success
            # response reaches the caller; a crash in the gap loses an
            # apply the client was never told about, so its idempotent
            # resubmit re-applies cleanly after recover()
            self._mutation_seq += 1
            name = self.journal.save_mutation(self._mutation_seq, batch)
            self._journal_append("mutation", key=key, batch_id=bid,
                                 from_version=record.from_version,
                                 to_version=record.to_version, file=name)
        # eager invalidation: dead-version entries could never be hit
        # again, so evict them now instead of letting them squat in the
        # LRU — keeping only versions still reachable (the new latest
        # plus anything pinned by an in-flight snapshot)
        keep = {record.to_version}
        keep.update(self.store.pinned_versions(key))
        self.cache.invalidate_graph(key, keep_versions=keep)
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
        # snapshot isolation: pin the graph version this job will
        # compute against for its whole lifetime — mutations landing
        # after this instant go into versions the job never sees
        job.snapshot = self.store.snapshot(spec.graph)
        self._jobs[job.job_id] = job
        self._journal_append("submitted", job_id=job.job_id,
                             spec=spec.to_doc(),
                             submitted_ms=job.submitted_ms,
                             snapshot_version=job.snapshot.version)
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
        if job.state == PENDING:
            pulled = self.queue.cancel(job_id)
            if pulled is not None:
                pulled.finished_ms = self.now_ms
                pulled.release_snapshot()
                self._journal_append("cancelled", job_id=job_id)
                return True
            return False
        rj = self.scheduler.find(job_id)
        if rj is not None:
            rj.stepper.close()
            job.state = CANCELLED
            job.finished_ms = self.now_ms
            job.release_snapshot()
            self._journal_append("cancelled", job_id=job_id)
            self._teardown(rj)
            if self._leads_waiters(rj):
                self._redispatch_waiters(rj.cache_key)
            return True
        # a coalesced waiter: parked behind an in-flight identical query
        for ckey, waiters in self._waiters.items():
            if job in waiters:
                waiters.remove(job)
                if not waiters:
                    del self._waiters[ckey]
                    self._waiter_parked_ms.pop(ckey, None)
                job.state = CANCELLED
                job.finished_ms = self.now_ms
                job.release_snapshot()
                self._journal_append("cancelled", job_id=job_id)
                self.store._detach(job.spec.graph)
                return True
        return False  # pragma: no cover - state machine guard

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
                for job in list(self.queue.jobs()):
                    pulled = self.queue.cancel(job.job_id)
                    if pulled is None:  # pragma: no cover - race guard
                        continue
                    job.error = "shed: service draining"
                    job.finished_ms = self.now_ms
                    job.release_snapshot()
                    self.admission.sheds += 1
                    self.admission.shed_reasons.append(
                        f"job #{job.job_id} ({job.spec.tenant}): "
                        f"pending at drain")
                    self._journal_append("cancelled", job_id=job.job_id)
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

        Reconstructs the service (cluster spec and budgets come from
        the journal's ``service_start`` record), reloads every graph in
        journal order, restores terminal jobs verbatim — finished jobs'
        answers re-enter the result cache from their npz sidecars, with
        no duplicate entries and no trace rewrites — and re-queues
        unfinished jobs seeded with their last durable checkpoint, so
        :meth:`run` continues them from the last journaled superstep
        instead of iteration 0.

        Replay appends nothing to the journal, so recovering the same
        journal twice (or recovering a cleanly drained one) is a no-op:
        identical state, untouched file.  ``graphs`` supplies graph
        objects for keys that were loaded without a dataset name;
        ``trace_dir`` overrides the journaled one.
        """
        records = read_journal(journal_path)
        state = replay_journal(records)
        meta = state.meta
        if meta is None:
            raise ServeError(
                f"journal {journal_path!r} has no service_start record")
        # journaled settings that name a constructor parameter; one a
        # journal lacks takes the constructor's default
        params = inspect.signature(cls).parameters
        settings = {k: v for k, v in meta.items() if k in params}
        if trace_dir is not None:
            settings["trace_dir"] = trace_dir
        svc = cls(ClusterSpec(**meta["cluster"]), **settings)
        jrn = JobJournal(journal_path)   # append mode: writes nothing
        mutated_keys = set()
        for kind, doc in state.graph_events:
            key = doc["key"]
            if kind == "mutation":
                # journaled batches replay exactly once (the store
                # dedupes by batch id); old versions are retained until
                # the re-queued jobs below re-pin what they still need
                batch = jrn.load_mutation(doc["file"])
                try:
                    svc.store.mutate(key, batch, doc["batch_id"],
                                     retain=True)
                except GraphError:
                    # defense in depth: the live path only journals
                    # batches that already applied, but a record from
                    # an older journal (or one straddling an unjournaled
                    # replace) may no longer fit the graph — skipping it
                    # beats wedging every future recover(); jobs pinned
                    # to unreachable versions fall back to latest below
                    svc.skipped_mutations += 1
                mutated_keys.add(key)
                continue
            if graphs is not None and key in graphs:
                graph = graphs[key]
            elif doc.get("dataset") is not None:
                graph = load_dataset(doc["dataset"])
            else:
                raise ServeError(
                    f"graph {key!r} was journaled without a dataset "
                    f"name; pass it via graphs={{{key!r}: <Graph>}}")
            if key in svc.store:
                svc.store.replace(key, graph)  # a journaled reload
                svc.cache.invalidate_graph(key)
            else:
                svc.store.load(key, graph)
        svc._mutation_seq = len(state.mutations)
        svc.now_ms = state.now_ms
        svc._idempotency = dict(state.idempotency)
        for jr in sorted(state.jobs.values(), key=lambda j: j.job_id):
            spec = JobSpec.from_doc(jr.spec_doc)
            job = Job(jr.job_id, spec, submitted_ms=jr.submitted_ms)
            svc._jobs[job.job_id] = job
            svc._next_job_id = max(svc._next_job_id, jr.job_id + 1)
            job.retries = jr.retries
            if jr.state == "done":
                result = jrn.load_result(jr.job_id)
                if result is not None:
                    job.state = DONE
                    job.result = result
                    job.from_cache = jr.from_cache
                    job.finished_ms = jr.finished_ms
                    job.consumed_ms = jr.consumed_ms
                    job.slices = jr.slices
                    if (spec.use_cache and jr.cache_key is not None
                            and not jr.from_cache):
                        svc.cache.put_entry(jr.cache_key, result)
                    svc.recovered_terminal += 1
                    continue
                # finished record without its sidecar (should not
                # happen: the sidecar lands first) — recompute
                jr.state = "pending"
            elif jr.state == "failed":
                job.state = FAILED
                job.error = jr.error
                job.finished_ms = jr.finished_ms
                svc.recovered_terminal += 1
                continue
            elif jr.state == "quarantined":
                job.state = QUARANTINED
                job.error = jr.error
                job.quarantine_reason = jr.quarantine_reason
                job.finished_ms = jr.finished_ms
                svc.recovered_terminal += 1
                continue
            elif jr.state == "cancelled":
                job.state = CANCELLED
                job.finished_ms = jr.finished_ms
                svc.recovered_terminal += 1
                continue
            # pending or in flight at the crash: re-queue, seeded with
            # the last durable checkpoint if one was journaled, and
            # re-pinned to the graph version it was submitted against
            try:
                job.snapshot = svc.store.snapshot(
                    spec.graph, version=jr.snapshot_version)
            except ServeError:
                # pre-v3 journal, or a version the graph history can
                # no longer prove — fall back to the latest version
                job.snapshot = svc.store.snapshot(spec.graph)
            job.resume_from = jrn.load_checkpoint(jr.job_id)
            if job.resume_from is not None:
                svc.resumed_from_checkpoint += 1
            svc.recovered_jobs += 1
            svc.queue.push(job)
        for key in mutated_keys:
            # replayed ``finished`` records may have re-installed cache
            # entries for versions nothing can reach anymore
            keep = {svc.store.get(key).version}
            keep.update(svc.store.pinned_versions(key))
            svc.cache.invalidate_graph(key, keep_versions=keep)
        svc.store.gc()   # drop retained versions no recovered job pins
        svc.journal = jrn
        return svc

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
        job.state = FAILED
        job.error = reason
        job.finished_ms = self.now_ms
        job.release_snapshot()
        self._journal_append("failed", job_id=job.job_id, error=reason)
        self._write_trace(job)

    def _dispatch(self, job: Job) -> None:
        """Start an admitted job: cache fast path or engine stepper."""
        spec = job.spec
        job.state = RUNNING
        if job.started_ms is None:
            job.started_ms = self.now_ms
        self.store._attach(spec.graph)
        if job.snapshot is None or job.snapshot.released:
            # jobs submitted before the snapshot API (or whose handle
            # was released by an earlier terminal path) pin late, at
            # the latest version — the pre-snapshot behavior
            job.snapshot = self.store.snapshot(spec.graph)
        snap = job.snapshot
        ckey = self.cache.key(spec.graph, snap.version, spec.algorithm,
                              spec.cache_params())
        self._journal_append(
            "admitted", job_id=job.job_id,
            resume_iteration=(job.resume_from.iteration
                              if job.resume_from is not None else 0))
        if spec.use_cache:
            hit = self.cache.get(ckey)
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
        self._charge(rj, event.sim_ms)
        job.slices += 1
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

    def _charge(self, rj: RunningJob, ms: float) -> None:
        rj.charged_ms += ms
        rj.virtual_ms += ms
        self._charge_job(rj.job, ms)

    def _charge_job(self, job: Job, ms: float) -> None:
        job.consumed_ms += ms
        self.ledger.charge(job.spec.tenant, ms)
        self.now_ms += ms

    def _serve_from_cache(self, job: Job, hit) -> None:
        """Complete an admitted job from a cached answer."""
        self._charge_job(job, CACHE_LOOKUP_MS)
        job.slices += 1
        job.from_cache = True
        job.result = hit
        job.state = DONE
        job.finished_ms = self.now_ms
        job.release_snapshot()
        self.ledger.finish(job.spec.tenant, from_cache=True)
        self.store._detach(job.spec.graph)
        if self.journal is not None:
            # the sidecar makes the job self-contained on recovery even
            # if the shared cache entry is evicted before a crash
            name = self.journal.save_result(
                job.job_id, hit.values, hit.iterations, hit.converged,
                hit.compute_ms, hit.engine, hit.algorithm)
            self._journal_append("finished", job_id=job.job_id,
                                 from_cache=True, cache_key=None,
                                 file=name,
                                 consumed_ms=job.consumed_ms)
        self._write_trace(job)

    def _finish(self, rj: RunningJob, result) -> None:
        job = rj.job
        # charge what the stepper never yielded as an event: setup
        # (connect) before the first superstep and any trailing drain
        # after the last — job.consumed_ms must equal result.total_ms
        extra = result.total_ms - rj.charged_ms
        if extra > 0:
            self._charge(rj, extra)
        job.result = result
        job.fault_report = rj.middleware.fault_report(result)
        job.state = DONE
        job.finished_ms = self.now_ms
        job.release_snapshot()
        if job.spec.use_cache:
            self.cache.put(rj.cache_key, result)
        self.ledger.finish(job.spec.tenant)
        ewma = self._ewma_service_ms
        self._ewma_service_ms = (result.total_ms if ewma is None
                                 else 0.5 * result.total_ms + 0.5 * ewma)
        self._teardown(rj)
        if self.journal is not None:
            name = self.journal.save_result(
                job.job_id, result.values, result.iterations,
                result.converged, result.total_ms, result.engine_name,
                result.algorithm_name)
            self._journal_append(
                "finished", job_id=job.job_id, from_cache=False,
                cache_key=(list(rj.cache_key) if job.spec.use_cache
                           else None),
                file=name, consumed_ms=job.consumed_ms)
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
            job.retries += 1
            self.retries += 1
            backoff = (job.spec.retry_backoff_ms
                       * (2 ** (job.retries - 1)))
            ckpt = self._journal_checkpoint(rj)
            if ckpt is not None:
                job.resume_from = ckpt
            job.state = PENDING
            job.not_before_ms = self.now_ms + backoff
            self._journal_append(
                "retry", job_id=job.job_id, attempt=job.retries,
                backoff_ms=backoff, error=reason,
                resume_iteration=(ckpt.iteration if ckpt is not None
                                  else 0))
            self._teardown(rj)
            self.queue.push(job)
            # coalesced waiters stay parked: the retry is still the
            # one in-flight computation of their query
            return
        if retryable and job.spec.max_retries > 0:
            job.state = QUARANTINED
            job.quarantine_reason = (
                f"poison: failed {job.retries + 1} times "
                f"(budget {job.spec.max_retries}); last error: {reason}")
            job.error = reason
            self._journal_append("quarantined", job_id=job.job_id,
                                 reason=job.quarantine_reason,
                                 error=reason)
        else:
            job.state = FAILED
            job.error = reason
            self._journal_append("failed", job_id=job.job_id,
                                 error=reason)
        job.finished_ms = self.now_ms
        job.release_snapshot()
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
