"""The two served workloads: closed-loop clients over loopback TCP
against one ``GraphServiceServer`` subprocess.

``serve-read`` is read-mostly Zipf traffic against a result cache
smaller than the catalogue.  ``serve-churn`` is the write path of the
same layers: mutation batches with warm and refused warm starts while a
second client keeps re-reading, then kill/recover cycles over the
journal that churn grew.

Load comes from this one process with at most two client threads / two
TCP connections; the server is one subprocess at a time, always reaped.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import ClusterSpec, GXPlug
from repro.api import mutate as apply_batch
from repro.errors import ReproError
from repro.serve import JOB_ENGINES
from repro.serve.client import GraphClient

from . import ROOT, inputs, measure, reference
from .inputs import Query
from .report import Outcome
from .server_main import CRASHED
from .spec import SERVE_SETUP_REPS
from .trace import END, Tracer, reference_span

#: per-request client timeout: a dead server costs a failed op, never a hang
OP_TIMEOUT_S = 20.0
#: a job not answered this long after its submit is a timed-out failure
JOB_TIMEOUT_S = 60.0
#: pause between poll sweeps over a client's jobs in flight
POLL_SLEEP_S = 0.003
#: how long a launcher may take to bind its port / to exit once told to
LAUNCH_TIMEOUT_S = 60.0
#: post-mutation PageRank tolerance (warm and cold trajectories agree to
#: round-off, not to the bit, once the graph's structure changed)
PAGERANK_TOLERANCE = 1e-6
#: what a wire operation raises when the server misbehaves or is gone
WIRE_ERRORS = (ReproError, OSError)


class ServerProcess:
    """One launcher subprocess; ``kill()`` is safe to call any time."""

    def __init__(self, workdir: str, index: int, config: Dict[str, Any]
                 ) -> None:
        self.name = f"server-{index}"
        self.dump_path = os.path.join(workdir, f"{self.name}.dump.json")
        cfg_path = os.path.join(workdir, f"{self.name}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dict(config, proc=self.name, dump=self.dump_path), fh)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server_main", cfg_path],
            cwd=ROOT, stdout=subprocess.PIPE)
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        """Block until the launcher printed its port (bounded)."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    LAUNCH_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise RuntimeError(f"{self.name} never announced its port")
        self.port = int(json.loads(line)["port"])

    def client(self, name: str, **kwargs) -> GraphClient:
        kwargs.setdefault("timeout_s", OP_TIMEOUT_S)
        return GraphClient("127.0.0.1", self.port, client_name=name,
                           heartbeat=False, **kwargs)

    def wait(self, timeout: float = LAUNCH_TIMEOUT_S) -> Optional[int]:
        """Exit code once the launcher ended by itself, else kill it."""
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def dump(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.dump_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None


@dataclass
class JobRec:
    """Client-side record of one job in flight."""

    query: Query
    job_id: int
    kind: str                 # warmup | read | recompute | kill
    t0: float                 # submit call started
    deduped: bool
    root: int = -1            # index of its root span when tracing
    polls: int = 0


@dataclass
class Done:
    """A job answered with verified values."""

    kind: str
    qid: str
    wall_ms: float            # submit call -> values in hand
    from_cache: bool
    polls: int
    t_end: float
    version: int              # the graph version its snapshot pinned
    warm: bool                # warm-started from an earlier fixpoint
    sim_ms: float             # simulated ms charged to it


class Session:
    """What the client threads of one run share: the server they talk
    to, the references they verify against, and everything measured."""

    def __init__(self, seed: int, size: Dict[str, Any],
                 tracer: Optional[Tracer], workdir: str) -> None:
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.workdir = workdir
        self.journal = os.path.join(workdir, "journal.jsonl")
        self.servers: List[ServerProcess] = []
        self.dumps: List[Dict[str, Any]] = []
        self.stack = contextlib.ExitStack()
        self.lock = threading.Lock()
        self.published = threading.Condition(self.lock)
        #: graph key -> version -> Graph (the benchmark's own mirror)
        self.graphs: Dict[str, Dict[int, Any]] = {}
        #: (qid, version) -> reference values
        self.refs: Dict[Tuple[str, int], np.ndarray] = {}
        #: (qid, version) -> in-process engine values (bit-identity)
        self.exact: Dict[Tuple[str, int], np.ndarray] = {}
        #: qid -> version -> delivered values: PageRank's warm seeds
        self.delivered: Dict[str, Dict[int, np.ndarray]] = {}
        self.values_sha: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.jobs: List[Done] = []
        self.submit_ms: List[float] = []
        self.poll_ms: List[float] = []
        self.values_ms: List[float] = []
        self.mutate_ms: List[float] = []
        self.recover_s: List[float] = []
        self.client_stats: List[Dict[str, Any]] = []

    # -- servers ------------------------------------------------------------------------

    def spawn(self, *, journal: Optional[str] = None, recover: bool = False,
              crash_after_steps: Optional[int] = None) -> ServerProcess:
        size = self.size
        server = ServerProcess(self.workdir, len(self.servers), {
            "seed": self.seed,
            "graphs": [[f"g{i}", v, e]
                       for i, (v, e) in enumerate(size["graphs"])],
            "nodes": size["nodes"], "max_running": size["max_running"],
            "cache_entries": size["cache_entries"],
            "journal": journal or self.journal, "recover": recover,
            "crash_after_steps": crash_after_steps,
            "trace": self.tracer is not None,
        })
        self.servers.append(server)
        self.stack.callback(server.kill)
        server.wait_ready()
        return server

    def retire(self, server: ServerProcess, client=None) -> Optional[int]:
        """Drain (when given a client) and reap ``server``; keep its
        dump."""
        if client is not None:
            try:
                client.drain("finish")
            except Exception as exc:   # noqa: BLE001 - reported, then reaped
                self.fail(f"drain: {type(exc).__name__}: {exc}")
            client.close()
        code = server.wait()
        dump = server.dump()
        if dump is not None:
            self.dumps.append(dump)
        return code

    def setup(self) -> Tuple[ServerProcess, Any, List[float]]:
        """Spawn launcher -> first answered ping, :data:`SERVE_SETUP_REPS`
        times; the last server stays up and is returned."""
        samples: List[float] = []
        for rep in range(SERVE_SETUP_REPS):
            last = rep == SERVE_SETUP_REPS - 1
            t0 = perf_counter()
            server = self.spawn(journal=None if last else os.path.join(
                self.workdir, f"setup{rep}.jsonl"))
            client = server.client("setup")
            client.ping()
            samples.append(perf_counter() - t0)
            if not last:
                client.close()
                server.kill()
        return server, client, samples

    # -- references ---------------------------------------------------------------------

    def load_graphs(self) -> None:
        for i, (v, e) in enumerate(self.size["graphs"]):
            key = f"g{i}"
            self.graphs[key] = {1: inputs.make_graph(self.seed, key, v, e)}

    def publish_graph(self, key: str, version: int, graph) -> None:
        with self.published:
            self.graphs[key][version] = graph
            self.published.notify_all()

    def reference_for(self, query: Query, version: int) -> np.ndarray:
        """The reference answer on ``version`` of the query's graph;
        waits (bounded) for the writer to publish a version the server
        answered from before the mirror caught up."""
        key = (query.qid, version)
        versions = self.graphs[query.graph]
        with self.published:
            if not self.published.wait_for(lambda: version in versions,
                                           timeout=OP_TIMEOUT_S):
                raise KeyError(f"no mirror of {query.graph} v{version}")
            want = self.refs.get(key)
            if want is None:
                want = self.refs[key] = reference.compute(
                    query, versions[version])
            return want

    def verify(self, query: Query, version: int, values: np.ndarray) -> bool:
        exact = self.exact.get((query.qid, version))
        if exact is not None and not np.array_equal(values, exact):
            return False
        want = self.reference_for(query, version)
        ok = reference.matches(query, values, want, PAGERANK_TOLERANCE)
        if query.algorithm == "pagerank":
            # a warm start resumes the capped iteration from an answer
            # delivered for an earlier version — which one depends on
            # what the result cache still held at mutation time
            graph = self.graphs[query.graph][version]
            with self.lock:
                seeds = sorted(self.delivered.setdefault(query.qid, {})
                               .items(), reverse=True)
            for seed_version, seed in seeds:
                if ok:
                    break
                if seed_version < version:
                    ok = reference.matches(
                        query, values, reference.compute(query, graph, seed),
                        PAGERANK_TOLERANCE)
            if ok:
                with self.lock:
                    self.delivered[query.qid].setdefault(version, values)
        if ok and (query.algorithm != "pagerank" or version == 1):
            # a warm-started PageRank answer depends on its seed, so
            # only the digests that repeat run over run are recorded
            key = f"{query.qid}@v{version}"
            if key not in self.values_sha:
                self.values_sha[key] = inputs.digest(values)
        return ok

    def fail(self, what: str) -> None:
        with self.lock:
            self.failures.append(what)

    def broken(self) -> bool:
        """Too many failed operations to be worth more load: a client
        loop stops instead of spinning against a dead server."""
        return len(self.failures) > 20


class Loop:
    """One closed-loop client: submit, poll, fetch values, verify."""

    def __init__(self, session: Session, client) -> None:
        self.s = session
        self.client = client

    def _span(self, name: str, t0: float, t1: float, rec: JobRec) -> None:
        if self.s.tracer is not None:
            self.s.tracer.add(name, t0, t1, rec.root, rec.job_id)

    def submit(self, query: Query, tenant: str, kind: str, *,
               use_cache: bool = True, key: Optional[str] = None
               ) -> Optional[JobRec]:
        s = self.s
        with s.lock:
            s.attempted += 1
        t0 = perf_counter()
        try:
            resp = self.client.submit(
                query.spec(tenant=tenant, use_cache=use_cache),
                idempotency_key=key)
        except WIRE_ERRORS as exc:
            s.fail(f"submit {query.algorithm}: {type(exc).__name__}: {exc}")
            return None
        t1 = perf_counter()
        s.submit_ms.append((t1 - t0) * 1e3)
        rec = JobRec(query, resp["job_id"], kind, t0, resp["deduped"])
        if s.tracer is not None:
            rec.root = s.tracer.add("job", t0, t0, -1, rec.job_id)
        self._span("serve.client.submit", t0, t1, rec)
        return rec

    def collect(self, pending: List[JobRec]) -> None:
        """Poll the jobs in flight; fetch and verify each as soon as it
        is done."""
        s = self.s
        pending = [rec for rec in pending if rec is not None]
        while pending:
            for rec in list(pending):
                t0 = perf_counter()
                try:
                    doc = self.client.poll(rec.job_id)
                    t1 = perf_counter()
                    s.poll_ms.append((t1 - t0) * 1e3)
                    self._span("serve.client.poll", t0, t1, rec)
                    rec.polls += 1
                    if doc["state"] == "done":
                        values = self.client.result_values(rec.job_id)
                        t2 = perf_counter()
                        s.values_ms.append((t2 - t1) * 1e3)
                        self._span("serve.client.values", t1, t2, rec)
                        self._done(rec, doc, values, t2)
                    elif doc["state"] != "pending" \
                            and doc["state"] != "running":
                        s.fail(f"job {rec.job_id} ended {doc['state']}: "
                               f"{doc.get('error')}")
                    elif t1 - rec.t0 > JOB_TIMEOUT_S:
                        s.fail(f"job {rec.job_id} timed out")
                    else:
                        continue
                except WIRE_ERRORS as exc:
                    s.fail(f"job {rec.job_id}: {type(exc).__name__}: {exc}")
                pending.remove(rec)
            if pending:
                time.sleep(POLL_SLEEP_S)

    def _done(self, rec: JobRec, doc: Dict[str, Any], values: np.ndarray,
              t_end: float) -> None:
        s = self.s
        if s.tracer is not None:
            s.tracer.spans[rec.root][END] = t_end
        # a job restored as finished by recover() no longer names its
        # snapshot; only the kill phase sees those, and nothing mutates
        # there, so it ran against the latest version
        version = doc["snapshot_version"] or max(s.graphs[rec.query.graph])
        if not s.verify(rec.query, version, values):
            s.fail(f"job {rec.job_id} {rec.query.algorithm} v{version}: "
                   f"wrong values")
            return
        s.jobs.append(Done(rec.kind, rec.query.qid, (t_end - rec.t0) * 1e3,
                           bool(doc["from_cache"]), rec.polls, t_end,
                           version, bool(doc["warm_started"]),
                           float(doc["consumed_ms"])))

    def close(self) -> None:
        self.s.client_stats.append(self.client.client_stats())
        self.client.close()


def _in_process_pagerank(session: Session, queries: List[Query]) -> None:
    """Bit-identity references: run every PageRank query of ``queries``
    in-process, as the service does, on version 1 of its graph."""
    spec = ClusterSpec(nodes=session.size["nodes"], gpus_per_node=1)
    with reference_span(session.tracer):
        for q in queries:
            if q.algorithm != "pagerank":
                continue
            cluster = spec.build()
            engine = JOB_ENGINES[q.engine].build(
                session.graphs[q.graph][1], cluster, GXPlug(cluster))
            result = engine.run(q.spec().build_algorithm(),
                                max_iterations=q.cap)
            session.exact[(q.qid, 1)] = result.values


# -- serve-read ---------------------------------------------------------------------------


def _read_client(session: Session, loop: Loop, index: int,
                 catalogue: List[Query]) -> None:
    size = session.size
    draws = inputs.zipf_draws(len(catalogue), size["zipf"], index)
    issued = 0
    for _ in range(size["bursts"]):
        if session.broken():
            return
        pending = []
        for _ in range(size["burst"]):
            tenant = f"t{(issued * size['clients'] + index) % size['tenants']}"
            pending.append(loop.submit(catalogue[next(draws)], tenant, "read"))
            issued += 1
        loop.collect(pending)


def _serve_read(session: Session) -> Tuple[
        List[Tuple[float, float]], List[float], Dict[str, Any]]:
    size = session.size
    session.load_graphs()
    catalogue = inputs.catalogue(
        {k: v[1] for k, v in session.graphs.items()})
    for q in catalogue:
        session.reference_for(q, 1)
    _in_process_pagerank(session, catalogue)
    server, client, setup_s = session.setup()

    # warm-up, untimed: first touch of every (graph, engine) partition
    warm = Loop(session, client)
    warm.collect([warm.submit(q, "warmup", "warmup", use_cache=False)
                  for q in catalogue if q.algorithm == "cc"])

    loops = [warm] + [Loop(session, server.client(f"c{i}"))
                      for i in range(1, size["clients"])]
    started = perf_counter()
    threads = [_client_thread(session, f"client-{i}", _read_client, loop, i,
                              catalogue)
               for i, loop in enumerate(loops)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ended = perf_counter()

    for loop in loops[1:]:
        loop.close()
    session.client_stats.append(client.client_stats())
    session.retire(server, client)
    schedule = inputs.schedule_doc(catalogue, workload="serve-read",
                                   size=size)
    return [(started, ended)], setup_s, {
        "schedule_sha256": inputs.digest(schedule)}


# -- serve-churn --------------------------------------------------------------------------


def _reader(session: Session, loop: Loop, standing: List[Query],
            cycle_start: threading.Barrier) -> None:
    """Client B: with every mutation cycle of the writer, re-read the
    standing set ``reader_passes`` times — hits on the outgoing version,
    then coalesced misses on the new one."""
    try:
        for _ in range(session.size["cycles"]):
            cycle_start.wait()
            for _ in range(session.size["reader_passes"]):
                loop.collect([loop.submit(q, "reader", "read")
                              for q in standing])
    except threading.BrokenBarrierError:
        pass                # the writer gave up and said why
    finally:
        cycle_start.abort()     # never leave the writer waiting


def _client_thread(session: Session, name: str, target, *args
                   ) -> threading.Thread:
    """A client thread whose unexpected exception is a recorded failure
    instead of a silently shorter run."""
    def guarded() -> None:
        try:
            target(session, *args)
        except Exception as exc:   # noqa: BLE001 - reported as a failure
            session.fail(f"{name} died: {type(exc).__name__}: {exc}")
            traceback.print_exc()
    return threading.Thread(target=guarded, name=name)


def _kill_cycle(session: Session, cycle: int, live: ServerProcess,
                client, standing: List[Query]) -> Tuple[ServerProcess, Any]:
    """Replace ``live`` by a server that crashes mid-work, recover it,
    and finish the interrupted submits exactly once."""
    session.retire(live, client)
    doomed = session.spawn(
        recover=True, crash_after_steps=session.size["crash_after_steps"])
    keys = [f"kill{cycle}.{i}" for i in range(len(standing))]
    first: Dict[int, int] = {}
    doomed_client = doomed.client("doomed", connect_attempts=1)
    for i, q in enumerate(standing):
        try:
            resp = doomed_client.submit(
                q.spec(tenant="kill", use_cache=False),
                idempotency_key=keys[i])
        except WIRE_ERRORS:
            break           # it died, as it was told to
        first[i] = resp["job_id"]
    doomed_client.close()
    with session.lock:
        session.attempted += 1
    if session.retire(doomed) != CRASHED:
        session.fail(f"kill cycle {cycle}: the doomed server did not crash")

    t0 = perf_counter()
    live = session.spawn(recover=True)
    client = live.client("recovered")
    client.ping()
    session.recover_s.append(perf_counter() - t0)
    loop = Loop(session, client)
    known = sum(client.stats()["metrics"]["jobs"].values())
    recs = [loop.submit(q, "kill", "kill", use_cache=False, key=keys[i])
            for i, q in enumerate(standing)]
    loop.collect(recs)
    # exactly one executed job per idempotency key: an interrupted submit
    # that was journaled dedupes to its first id, the rest run once
    after = sum(client.stats()["metrics"]["jobs"].values())
    ids = [rec.job_id for rec in recs if rec is not None]
    once = (len(set(ids)) == len(standing)
            and after == known + len(standing) - len(first)
            and all(recs[i] is not None and recs[i].deduped
                    and recs[i].job_id == jid for i, jid in first.items()))
    if not once:
        session.fail(f"kill cycle {cycle}: a key ran more or less than once")
    session.client_stats.append(client.client_stats())
    return live, client


def _serve_churn(session: Session) -> Tuple[
        List[Tuple[float, float]], List[float], Dict[str, Any]]:
    size = session.size
    tracer = session.tracer
    session.load_graphs()
    key = "g0"
    standing = inputs.standing_set(session.graphs[key][1])
    server, client, setup_s = session.setup()

    # warm-up, untimed: partitions built, the standing set cached at v1
    main = Loop(session, client)
    main.collect([main.submit(q, "writer", "warmup") for q in standing])

    # phase 1: mutate + re-submit, while a second client keeps reading
    reader = Loop(session, server.client("reader"))
    cycle_start = threading.Barrier(2, timeout=JOB_TIMEOUT_S)
    thread = _client_thread(session, "client-reader", _reader, reader,
                            standing, cycle_start)
    kinds: List[str] = []
    batches: List[str] = []
    version = 1
    started = perf_counter()
    thread.start()
    try:
        for cycle in range(size["cycles"]):
            cycle_start.wait()
            graph = session.graphs[key][version]
            kind, batch = inputs.churn_batch(graph, session.seed, cycle,
                                             size["churn"])
            kinds.append(kind)
            batches.append(batch.fingerprint())
            with session.lock:
                session.attempted += 1
            t0 = perf_counter()
            try:
                resp = client.mutate(key, batch,
                                     idempotency_key=f"churn{cycle}")
            except WIRE_ERRORS as exc:
                session.fail(f"mutate {cycle}: {type(exc).__name__}: {exc}")
                break
            t1 = perf_counter()
            session.mutate_ms.append((t1 - t0) * 1e3)
            if tracer is not None:
                tracer.add("serve.client.mutate", t0, t1, -1, None)
            # re-submit first so the server recomputes while the mirror
            # graph (needed only to verify) catches up
            recs = [main.submit(q, "writer", "recompute") for q in standing]
            with reference_span(tracer):
                mirrored, _ = apply_batch(graph, batch)
            version = resp["version"]
            session.publish_graph(key, version, mirrored)
            main.collect(recs)
    except threading.BrokenBarrierError:
        session.fail("the reader never reached the next cycle")
    finally:
        cycle_start.abort()
        thread.join()
    reader.close()
    churn_ended = perf_counter()

    # phase 2: kill / recover cycles over the journal churn grew
    live = server
    kill_started = perf_counter()
    for cycle in range(size["kill_cycles"]):
        live, client = _kill_cycle(session, cycle, live, client, standing)
    ended = perf_counter()
    session.retire(live, client)

    schedule = inputs.schedule_doc(standing, workload="serve-churn",
                                   batches=batches, size=size)
    return [(started, churn_ended), (kill_started, ended)], setup_s, {
        "schedule_sha256": inputs.digest(schedule),
        "churn_kinds": kinds, "final_version": version}


# -- assembling the outcome ---------------------------------------------------------------


def _journal_size(path: str) -> Tuple[int, int]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return 0, 0
    return len(data), data.count(b"\n")


def run(workload: str, size: Dict[str, Any], seed: int,
        tracer: Optional[Tracer], out_dir: str) -> Outcome:
    workdir = os.path.join(out_dir, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    session = Session(seed, size, tracer, workdir)
    phase = _serve_read if workload == "serve-read" else _serve_churn
    with session.stack:     # reaps every launcher, whatever happens
        windows, setup_s, detail = phase(session)
    journal_bytes, journal_records = _journal_size(session.journal)

    jobs = [j for j in session.jobs if j.kind != "warmup"]
    # throughput is the closed loop's: the first window, where both
    # clients run (serve-churn's kill phase has one client and mostly
    # measures downtime, reported as serve.client.recover_s)
    loop_start, loop_end = windows[0]
    in_loop = sum(1 for j in jobs if j.t_end <= loop_end)
    by_kind: Dict[Tuple[str, bool], List[float]] = {}
    for j in jobs:
        by_kind.setdefault((j.qid, j.from_cache), []).append(j.wall_ms)
    walls = [j.wall_ms for j in jobs]
    hits = [j.wall_ms for j in jobs if j.from_cache]
    computes = {k: v for k, v in by_kind.items() if not k[1]}
    recomputes = [j.wall_ms for j in jobs if j.kind == "recompute"]
    # simulated ms of every distinct computation the schedule asks for:
    # which client's job ends up running it (the other's is a hit or
    # coalesces) is a race, what it costs is not.  The kill phase is
    # left out: how far a doomed job got before the crash is a race too.
    computed: Dict[Tuple[str, int, bool], float] = {}
    for j in session.jobs:
        if j.kind != "kill" and not j.from_cache:
            computed.setdefault((j.qid, j.version, j.warm), j.sim_ms)
    dumps = session.dumps
    layer_values = {
        "serve.client.submit_rtt_ms_p50": measure.median(session.submit_ms),
        "serve.client.poll_rtt_ms_p50": measure.median(session.poll_ms),
        "serve.client.values_rtt_ms_p50": measure.median(session.values_ms),
        "serve.client.polls_per_job": (
            sum(j.polls for j in jobs) / len(jobs) if jobs else 0.0),
        "serve.client.reconnects": sum(
            c["reconnects"] for c in session.client_stats),
        "serve.client.timeouts": sum(
            c["timeouts"] for c in session.client_stats),
        "serve.client.job_wall_ms_p90": measure.p90(walls),
        "serve.client.hit_wall_ms_p50": measure.median(hits),
        "serve.client.compute_wall_ms": measure.typical(computes),
        "serve.client.mutate_wall_ms_p50": measure.median(session.mutate_ms),
        "serve.client.recompute_wall_ms_p50": measure.median(recomputes),
        "serve.client.recover_s": measure.median(session.recover_s),
        "serve.journal.bytes": journal_bytes,
        "serve.journal.records": journal_records,
        "process.peak_rss_mb": max((d["rss_mb"] for d in dumps),
                                   default=0.0),
    }
    failed = len(session.failures)
    detail.update({
        "jobs": len(jobs), "hits": len(hits),
        "computes": len(walls) - len(hits),
        "timed_wall_s": sum(b - a for a, b in windows),
        "closed_loop_s": loop_end - loop_start,
        "setup_samples_s": setup_s,
        "job_wall_samples": len(walls),
        "computations": len(computed),
        "servers": len(session.servers),
        "failures": session.failures[:20],
        "values_sha256": dict(sorted(session.values_sha.items())),
    })
    outcome = Outcome(
        end_to_end={
            "setup_s": measure.median(setup_s),
            "jobs_per_s": in_loop / (loop_end - loop_start),
            "job_wall_ms": measure.typical(by_kind),
            "sim_ms": sum(ms for _, ms in sorted(computed.items())),
        },
        attempted=session.attempted, failed=failed, correct=failed == 0,
        windows=windows,
        published=[d["published"] for d in dumps],
        span_lists=([(tracer.proc, tracer.spans)]
                    + [(d["proc"], d["spans"]) for d in dumps]
                    if tracer else []),
        counts=([tracer.counts] + [d["counts"] for d in dumps]
                if tracer else []),
        layer_values=layer_values, detail=detail,
        server_walls=[tuple(d["wall"]) for d in dumps])
    if failed == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome
