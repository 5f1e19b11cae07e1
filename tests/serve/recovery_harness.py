"""The recovery differential's harness: a job builder, the normalised
view of a service that recovery must restore, a tape of the live
journal's writes and the state after each record, and a driver that
steps a service until idle.  Shared by the recovery tests that replay a
live service's journal and compare what ``recover()`` rebuilds.
"""

import os

from repro.api import GraphService, JobSpec

PARAMS = {"kcore": {"k": 2}}
CAPS = {"pagerank": 5, "lp": 5}


def job(algorithm, engine="powergraph", graph="g", **kw):
    return JobSpec(graph=graph, algorithm=algorithm, engine=engine,
                   params=PARAMS.get(algorithm, {}),
                   max_iterations=CAPS.get(algorithm), **kw)


def view(svc):
    """What recovery restores, normalised the way it leaves a service.

    The journal carries no ms for a job that did not finish, so a
    recovered service re-queues every unfinished job (``pending``) with
    an empty account; the live ledger sheds those jobs' charges to
    match.  Records carry the clock to 6 decimals; lookup counts and
    the service clock between records are not compared.
    """
    jobs, unsettled = {}, {}
    for j in svc.jobs():
        done = j.state == "done"
        jobs[j.job_id] = (
            j.state if j.finished else "pending", j.snapshot_version,
            j.retries, j.from_cache,
            round(j.finished_ms, 6) if j.finished else None,
            j.error if j.finished else None,
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
