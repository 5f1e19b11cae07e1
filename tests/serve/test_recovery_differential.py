"""Recovery is the live path replayed: a prefix differential.

A scripted workload runs on a journaled service over ~30-vertex graphs:
every algorithm on both paper engines, a mutation with warm starts, a
reload, cache hits, a coalesced waiter, a checkpoint-resume retry, a
failure, a quarantine, two cancels and a drain.  A wrapper of the live
journal's ``append`` and sidecar writes notes each write the moment it
lands (a checkpoint sidecar is overwritten in place, so a later copy
would be wrong), and the live service's state after each record's
transition.

Every position the journal passed through is then rebuilt in a working
directory, write by write, and recovered (``recover()`` itself ends in
``check_invariants()``):

* after each record k, with record k+1 torn mid-line and a sidecar
  write killed before its rename (a leftover ``.tmp``), the journal
  must read back as exactly its first k records, recover to the live
  service normalised the way recovery leaves it (:func:`view`), and,
  run out, end with every job the live run finished byte-identical to
  it at the same iteration count;
* so must every position between a sidecar write and the record that
  names it (a newer checkpoint than the journal says, an orphan result
  or mutation batch).

A second script runs the same check on a two-entry result cache, so
answers spill to their sidecars, lookups of spilled keys reload them,
and a mutation drops both tiers, at every prefix.  Which answers are
resident and which spilled depends on lookup counts, which are not
journaled, so :func:`view` compares the union of the two tiers.
"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.api import ClusterSpec, GraphService, JobSpec, MiddlewareConfig
from repro.errors import ServeError
from repro.fault import CRASH, FaultPlan
from repro.graph import rmat
from repro.graph.mutations import MutationBatch
from repro.serve.journal import JobJournal, read_journal

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)
G = rmat(32, 128, seed=3)
H = rmat(24, 96, seed=4)
GRAPHS = {"g": G, "h": H}
ENGINES = ("graphx", "powergraph")
PARAMS = {"kcore": {"k": 2}}
CAPS = {"pagerank": 5, "lp": 5}
#: grows the graph (two added edges): cc, bfs and sssp warm-start
GROW = MutationBatch(add_src=[0, 5], add_dst=[17, 30],
                     add_weights=[1.0, 2.0])
POISON = MiddlewareConfig.preset("baseline").with_(
    fault_plan=FaultPlan.single(CRASH, superstep=1, node_id=0, repeat=50))


def job(algorithm, engine="powergraph", graph="g", **kw):
    return JobSpec(graph=graph, algorithm=algorithm, engine=engine,
                   params=PARAMS.get(algorithm, {}),
                   max_iterations=CAPS.get(algorithm), **kw)


def view(svc):
    """What recovery restores, normalised the way it leaves a service.

    The journal carries no ms for a job that did not finish, so a
    recovered service re-queues every unfinished job (``pending``) with
    an empty account; the live ledger sheds those jobs' charges to
    match.  Records carry the clock to 6 decimals; a drain's shed
    message is not journaled; lookup counts and the service clock
    between records are not compared.
    """
    jobs, unsettled = {}, {}
    for j in svc.jobs():
        done = j.state == "done"
        jobs[j.job_id] = (
            j.state if j.finished else "pending", j.snapshot_version,
            j.retries, j.from_cache,
            round(j.finished_ms, 6) if j.finished else None,
            j.error if j.state in ("failed", "quarantined") else None,
            j.quarantine_reason,
            j.values.tobytes() if done else None,
            j.result.iterations if done else None,
            round(j.consumed_ms, 6) if done else None,
            j.slices if done else None)
        if not done:
            row = unsettled.setdefault(j.spec.tenant, [0.0, 0])
            row[0] += j.consumed_ms
            row[1] += j.slices
    ledger = {}
    for tenant, row in svc.ledger.snapshot().items():
        ms, slices = unsettled.get(tenant, (0.0, 0))
        settled = (round(row["consumed_ms"] - ms, 4),
                   row["slices"] - slices, row["jobs_finished"],
                   row["cache_hits"])
        if settled != (0.0, 0, 0, 0):
            ledger[tenant] = settled
    return {
        "jobs": jobs,
        "ledger": ledger,
        "cache": sorted([*svc.cache.keys(), *svc.cache._spilled]),
        "versions": {k: svc.store.get(k).version for k in svc.store.keys()},
        "pins": dict(svc.store._pins),
        "idempotency": {k: v for k, v in svc._idempotency.items()
                        if v in svc._jobs},
    }


class Tape:
    """The live journal's writes, in order, and the state after each
    record: ``events`` holds ``("record", line)`` and ``("sidecar",
    name, bytes)``; ``views[k]`` is the live :func:`view` once record k
    applied (records count from 1, the ``service_start``)."""

    def __init__(self, svc: GraphService) -> None:
        self.svc = svc
        self.events = []
        self.views = {}
        self.records = 0
        self.pending = False
        jrn = svc.journal
        self.path = jrn.path
        self.offset = 0
        self._note_append()
        append = jrn.append

        def wrapped_append(*args, **kwargs):
            self.settle()        # record k-1's transition has applied
            append(*args, **kwargs)
            self._note_append()
        jrn.append = wrapped_append
        for name in ("save_checkpoint", "save_result", "save_mutation"):
            setattr(jrn, name, self._sidecar(getattr(jrn, name)))

    def _note_append(self) -> None:
        with open(self.path, "rb") as f:
            f.seek(self.offset)
            line = f.read()
        self.offset += len(line)
        self.records += 1
        self.events.append(("record", line))
        self.pending = True

    def _sidecar(self, save):
        def wrapped(*args, **kwargs):
            self.settle()
            name = save(*args, **kwargs)
            path = os.path.join(self.svc.journal.state_dir, name)
            with open(path, "rb") as f:
                self.events.append(("sidecar", name, f.read()))
            return name
        return wrapped

    def settle(self) -> None:
        if self.pending:
            self.views[self.records] = view(self.svc)
            self.pending = False

    def op(self, fn, *args, **kwargs):
        """Run one service call; its record's transition lands inside
        it (graph_loaded and mutation apply before they append)."""
        self.settle()
        out = fn(*args, **kwargs)
        self.settle()
        return out


def drive(tape, svc, steps=None):
    """Step until idle, or for ``steps`` rounds."""
    while steps != 0 and tape.op(svc.step):
        steps = None if steps is None else steps - 1


def workload(tape, svc):
    tape.op(svc.load_graph, "g", G)
    tape.op(svc.load_graph, "h", H)
    # every algorithm on both engines, two tenants' jobs at a time
    for name in sorted(ALGORITHMS):
        for engine in ENGINES:
            tape.op(svc.submit, job(name, engine, tenant=engine))
        drive(tape, svc)
    # a coalesced waiter and, once the answer is cached, a hit; an
    # exactly-once submit
    tape.op(svc.submit, job("sssp-bf", graph="h"))
    tape.op(svc.submit, job("sssp-bf", graph="h", tenant="waiter"))
    drive(tape, svc)
    tape.op(svc.submit, job("sssp-bf", graph="h", tenant="hit"),
            idempotency_key="k-1")
    drive(tape, svc)
    # a mutation: the next cc / bfs / sssp-bf on g warm-start
    tape.op(svc.mutate, "g", GROW)
    for name in ("cc", "bfs", "sssp-bf"):
        tape.op(svc.submit, job(name, tenant="warm"))
    drive(tape, svc)
    # a checkpoint-resume retry of a simulated transient failure
    retried = tape.op(svc.submit, job("pagerank", tenant="retry",
                                      use_cache=False, max_retries=2))
    drive(tape, svc, steps=4)
    rj = svc.scheduler.find(retried.job_id)
    rj.stepper.close()
    tape.op(svc._fail, rj, ServeError("transient glitch"))
    # a failure and a quarantine (the crash repeats past every retry;
    # on h, where no warm seed skips the superstep it strikes)
    tape.op(svc.submit, job("cc", graph="h", tenant="doomed",
                            use_cache=False, runtime=POISON))
    tape.op(svc.submit, job("cc", graph="h", tenant="poison",
                            use_cache=False, runtime=POISON, max_retries=1))
    drive(tape, svc)
    # a reload, then cancels: one running job, one still queued
    tape.op(svc.load_graph, "h", H)
    running = tape.op(svc.submit, job("lp", graph="h", tenant="cancel"))
    tape.op(svc.submit, job("kcore", graph="h"))
    queued = tape.op(svc.submit, job("widest-path", graph="h",
                                     tenant="cancel"))
    drive(tape, svc, steps=2)
    tape.op(svc.cancel, queued.job_id)
    tape.op(svc.cancel, running.job_id)
    # a drain: the running job finishes, the queued one is shed
    tape.op(svc.submit, job("pagerank", graph="h", tenant="drain"))
    tape.op(svc.submit, job("bfs", graph="h", tenant="drain"))
    tape.op(svc.submit, job("cc", graph="h", tenant="drain"))
    drive(tape, svc, steps=1)
    tape.op(svc.drain)


def spill_workload(tape, svc):
    """For a two-entry cache: computes spill, repeated queries reload
    (spilling another), and a mutation drops every entry of the old
    version.  After the mutation only algorithms without a warm start
    run, since which answers were resident to harvest seeds from
    depends on the lookup counts."""
    tape.op(svc.load_graph, "g", G)
    for name in ("cc", "kcore", "lp", "cc", "widest-path", "kcore", "cc",
                 "lp"):
        tape.op(svc.submit, job(name))
        drive(tape, svc)
    tape.op(svc.mutate, "g", GROW)
    for name in ("lp", "kcore", "widest-path", "lp", "kcore"):
        tape.op(svc.submit, job(name, tenant="after"))
        drive(tape, svc)


def run_live(tmp_path, script=workload, **kwargs):
    svc = GraphService(SPEC, journal=str(tmp_path / "live.jsonl"),
                       max_running=2, **kwargs)
    tape = Tape(svc)
    script(tape, svc)
    tape.settle()
    finals = {j.job_id: (j.values.tobytes(), j.result.iterations)
              for j in svc.jobs(state="done")}
    return svc, tape, finals


def run_out(rec, finals, spare, where):
    """Run a recovered service to idle, journaling into the ``spare`` journal so
    the prefix it came from stays untouched."""
    rec.journal = JobJournal(str(spare), fresh=True)
    rec.run()
    rec.journal.close()
    for job_id, (values, iterations) in finals.items():
        if job_id not in rec._jobs:
            continue
        job = rec.job(job_id)
        assert job.state == "done", f"{where}: job #{job_id} {job.state}"
        assert job.values.tobytes() == values, f"{where}: job #{job_id}"
        assert job.result.iterations == iterations, \
            f"{where}: job #{job_id} iterations"


def decoded_once(load, kind):
    """``load`` (a sidecar reader) memoized on the sidecar's bytes: the
    ~300 recoveries below re-read the same files, and decoding an npz
    costs more than everything else a recovery does.  Each call still
    gets arrays of its own."""
    memo = {}

    def cached(self, job_id, name=None):
        path = os.path.join(self.state_dir,
                            name or f"job-{job_id}-{kind}.npz")
        if not os.path.exists(path):
            return load(self, job_id, name)
        with open(path, "rb") as f:
            key = (path, f.read())
        if key not in memo:
            memo[key] = load(self, job_id, name)
        loaded = memo[key]
        return dataclasses.replace(loaded, **{
            f.name: getattr(loaded, f.name).copy()
            for f in dataclasses.fields(loaded)
            if isinstance(getattr(loaded, f.name), np.ndarray)})
    return cached


def test_every_journal_prefix_recovers_to_the_live_state(tmp_path,
                                                         monkeypatch):
    live, tape, finals = run_live(tmp_path)
    lines = [e[1] for e in tape.events if e[0] == "record"]
    parsed = [json.loads(line) for line in lines]
    assert {"mutation", "retry", "failed", "quarantined", "cancelled",
            "shutdown", "idempotency", "checkpointed"} <= {
        doc["rec"] for doc in parsed}
    counts = live.metrics()
    assert counts["coalesced"] == 1 and counts["warm_starts"] >= 2
    assert counts["cache"]["hits"] >= 2 and counts["retries"] == 2
    recover_every_prefix(tmp_path, monkeypatch, tape, finals)


def test_every_prefix_of_a_spilling_cache_recovers_to_the_live_state(
        tmp_path, monkeypatch):
    live, tape, finals = run_live(tmp_path, spill_workload,
                                  cache_entries=2)
    stats = live.cache.stats()
    assert stats["reloads"] >= 2 and stats["evictions"] >= 4
    assert stats["invalidations"] >= 3      # both tiers of version 1
    assert stats["spilled"] >= 1
    recover_every_prefix(tmp_path, monkeypatch, tape, finals)


def recover_every_prefix(tmp_path, monkeypatch, tape, finals):
    """Rebuild every position the journal passed through, write by
    write, and check each against the live view and run-out values."""
    lines = [e[1] for e in tape.events if e[0] == "record"]
    parsed = [json.loads(line) for line in lines]
    load_checkpoint = JobJournal.load_checkpoint
    monkeypatch.setattr(JobJournal, "load_result", decoded_once(
        JobJournal.load_result, "result"))
    monkeypatch.setattr(JobJournal, "load_checkpoint", decoded_once(
        lambda self, job_id, name: load_checkpoint(self, job_id), "ckpt"))
    work = tmp_path / "work" / "svc.jsonl"
    state_dir = Path(f"{work}.d")
    state_dir.mkdir(parents=True)
    leftover = state_dir / "job-1-ckpt.npz.tmp"
    spare = tmp_path / "runout.jsonl"

    def check(where, k):
        rec = GraphService.recover(str(work), graphs=GRAPHS)
        assert view(rec) == tape.views[k], where
        run_out(rec, finals, spare, where)

    k = 0
    for event in tape.events:
        if event[0] == "sidecar":
            _, name, data = event
            (state_dir / name).write_bytes(data)
            check(f"prefix {k} + sidecar {name}", k)
            continue
        k += 1
        prefix = b"".join(lines[:k])
        torn = lines[k][:len(lines[k]) // 2] if k < len(lines) else b""
        work.write_bytes(prefix + torn)
        leftover.write_bytes(b"PK\x03\x04 killed mid-write")
        assert read_journal(str(work)) == parsed[:k]
        check(f"prefix {k}, torn", k)
        leftover.unlink()
        work.write_bytes(prefix)
