"""Unit tests for the write-ahead job journal and its replay onto a
recovered service."""

import json
import os
import re
import struct
import zipfile

import numpy as np
import pytest

from repro.errors import ServeError
from repro.fault.checkpoint import Checkpoint
from repro.graph import Graph
from repro.graph.mutations import MutationBatch
from repro.serve import GraphService, JobSpec
from repro.serve.journal import JOURNAL_VERSION, JobJournal, read_journal


@pytest.fixture
def jpath(tmp_path):
    return str(tmp_path / "svc.jsonl")


def test_append_read_roundtrip(jpath):
    jrn = JobJournal(jpath)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION,
               cluster={"nodes": 2})
    jrn.append("submitted", 0.0, job_id=1, spec={"graph": "g"},
               submitted_ms=0.0)
    jrn.append("admitted", 1.5, job_id=1, resume_iteration=0)
    jrn.close()
    records = read_journal(jpath)
    assert [r["rec"] for r in records] == ["service_start", "submitted",
                                           "admitted"]
    assert records[2]["now_ms"] == 1.5
    assert jrn.records_written == 3


def test_append_jsonifies_tuples_and_numpy(jpath):
    jrn = JobJournal(jpath)
    jrn.append("finished", np.float64(3.0), job_id=np.int64(1),
               cache_key=("g", 1, "pagerank", "abc"),
               consumed_ms=np.float64(2.5), from_cache=np.bool_(False))
    jrn.close()
    (rec,) = read_journal(jpath)
    assert rec["cache_key"] == ["g", 1, "pagerank", "abc"]
    assert rec["job_id"] == 1 and rec["consumed_ms"] == 2.5
    assert rec["from_cache"] is False


def test_unknown_kind_and_closed_journal_raise(jpath):
    jrn = JobJournal(jpath)
    with pytest.raises(ServeError, match="unknown journal record kind"):
        jrn.append("reticulated", 0.0)
    jrn.close()
    assert jrn.closed
    with pytest.raises(ServeError, match="closed"):
        jrn.append("shutdown", 0.0, clean=True)


def test_torn_trailing_line_is_dropped(jpath):
    jrn = JobJournal(jpath)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION)
    jrn.append("submitted", 0.0, job_id=1, spec={})
    jrn.close()
    with open(jpath, "a", encoding="utf-8") as f:
        f.write('{"rec": "admitted", "job_id')  # killed mid-append
    records = read_journal(jpath)
    assert [r["rec"] for r in records] == ["service_start", "submitted"]


def test_mid_file_corruption_raises(jpath):
    jrn = JobJournal(jpath)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION)
    jrn.append("submitted", 0.0, job_id=1, spec={})
    jrn.close()
    lines = open(jpath, encoding="utf-8").readlines()
    lines[0] = lines[0][:20] + "\n"
    open(jpath, "w", encoding="utf-8").writelines(lines)
    with pytest.raises(ServeError, match="corrupt at line 1"):
        read_journal(jpath)


def test_non_record_line_raises(jpath):
    with open(jpath, "w", encoding="utf-8") as f:
        f.write(json.dumps({"no_rec": True}) + "\n")
        f.write(json.dumps({"rec": "shutdown"}) + "\n")
    with pytest.raises(ServeError, match="not a record"):
        read_journal(jpath)


def test_missing_file_raises(tmp_path):
    with pytest.raises(ServeError, match="cannot read journal"):
        read_journal(str(tmp_path / "nope.jsonl"))


def test_checkpoint_sidecar_roundtrip(jpath):
    jrn = JobJournal(jpath)
    ckpt = Checkpoint(iteration=4,
                      values=np.array([1.0, 2.5, -3.0]),
                      active=np.array([True, False, True]),
                      cost_ms=7.0)
    name = jrn.save_checkpoint(7, ckpt)
    assert name == "job-7-ckpt.npz"
    back = jrn.load_checkpoint(7)
    assert back.iteration == 4
    np.testing.assert_array_equal(back.values, ckpt.values)
    np.testing.assert_array_equal(back.active, ckpt.active)
    assert back.cost_ms == 0.0  # resume seeding is free
    assert jrn.load_checkpoint(99) is None
    # overwrite: only the newest durable state survives
    jrn.save_checkpoint(7, Checkpoint(iteration=6, values=ckpt.values,
                                      active=ckpt.active, cost_ms=0.0))
    assert jrn.load_checkpoint(7).iteration == 6
    jrn.close()


def test_result_sidecar_roundtrip(jpath):
    jrn = JobJournal(jpath)
    values = np.linspace(0.0, 1.0, 17)
    jrn.save_result(3, values, iterations=9, converged=True,
                    compute_ms=123.5, engine="powergraph",
                    algorithm="pagerank")
    back = jrn.load_result(3)
    np.testing.assert_array_equal(back.values, values)
    assert back.iterations == 9 and back.converged
    assert back.compute_ms == 123.5
    assert back.engine == "powergraph" and back.algorithm == "pagerank"
    assert jrn.load_result(4) is None
    jrn.close()


def test_append_mode_preserves_history(jpath):
    jrn = JobJournal(jpath)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION)
    jrn.close()
    again = JobJournal(jpath)  # recovery reopens in append mode
    again.append("submitted", 1.0, job_id=1, spec={})
    again.close()
    assert [r["rec"] for r in read_journal(jpath)] == ["service_start",
                                                       "submitted"]
    # fresh=True truncates instead
    JobJournal(jpath, fresh=True).close()
    assert read_journal(jpath) == []


# -- replay: the records re-applied to a recovered service --------------------

#: The graph every replayed ``graph_loaded`` record resolves to.
GRAPH = Graph.from_edges(8, np.arange(8), (np.arange(8) + 1) % 8)


def _recover(jpath, records):
    """Write ``records`` as the journal at ``jpath`` and recover it."""
    with open(jpath, "w", encoding="utf-8") as f:
        for doc in records:
            f.write(json.dumps(doc) + "\n")
    return GraphService.recover(jpath, graphs={"g": GRAPH})


def _sidecars(jpath):
    """The sidecars :func:`_lifecycle_records` and the exemplars name."""
    jrn = JobJournal(jpath)
    values = np.linspace(0.0, 1.0, GRAPH.num_vertices)
    for job_id in (1, 9):
        jrn.save_checkpoint(job_id, Checkpoint(
            iteration=2, values=values,
            active=np.ones(GRAPH.num_vertices, dtype=bool), cost_ms=0.0))
        jrn.save_result(job_id, values, iterations=9, converged=True,
                        compute_ms=8.5, engine="powergraph",
                        algorithm="pagerank")
    jrn.save_mutation(1, MutationBatch(add_src=[0], add_dst=[4]))
    jrn.close()
    return values


def _lifecycle_records():
    return [
        {"rec": "service_start", "now_ms": 0.0, "version": 1,
         "cluster": {"nodes": 2}},
        {"rec": "graph_loaded", "now_ms": 0.0, "key": "g",
         "dataset": "wrn", "version": 1},
        {"rec": "submitted", "now_ms": 0.0, "job_id": 1,
         "spec": {"graph": "g"}, "submitted_ms": 0.0},
        {"rec": "submitted", "now_ms": 0.0, "job_id": 2,
         "spec": {"graph": "g"}, "submitted_ms": 0.0},
        {"rec": "admitted", "now_ms": 1.0, "job_id": 1,
         "resume_iteration": 0},
        {"rec": "slice", "now_ms": 2.0, "job_id": 1, "iteration": 1},
        {"rec": "slice", "now_ms": 3.0, "job_id": 1, "iteration": 2},
        {"rec": "checkpointed", "now_ms": 3.0, "job_id": 1,
         "iteration": 2, "file": "job-1-ckpt.npz"},
        {"rec": "shed", "now_ms": 3.5, "tenant": "t9",
         "reason": "queue depth 2/2 (overload)"},
    ]


def test_replay_tracks_progress_and_checkpoints(jpath):
    _sidecars(jpath)
    rec = _recover(jpath, _lifecycle_records())
    assert rec.store.keys() == ["g"] and rec.store.get("g").version == 1
    assert rec.store.get("g").graph is GRAPH   # graphs= beat the dataset
    assert rec.now_ms == 3.5
    one, two = rec.job(1), rec.job(2)
    # both unfinished: re-queued, job 1 at its journaled checkpoint
    assert [j.job_id for j in rec.queue.jobs()] == [1, 2]
    assert one.state == two.state == "pending"
    assert one.started_ms == 1.0 and two.started_ms is None
    assert one.resume_from.iteration == 2 and two.resume_from is None
    # an unfinished job's account restarts: the journal holds no ms
    assert one.slices == 0 and one.consumed_ms == 0.0
    recovery = rec.metrics()["recovery"]
    assert recovery["requeued"] == 2 and recovery["resumed"] == 1
    assert recovery["recovered"] - recovery["requeued"] == 0
    assert rec.ledger.snapshot()["default"]["slices"] == 0


def test_replay_terminal_states_and_retry(jpath):
    values = _sidecars(jpath)
    records = _lifecycle_records() + [
        {"rec": "retry", "now_ms": 4.0, "job_id": 1, "attempt": 1,
         "backoff_ms": 1.0, "error": "boom", "resume_iteration": 2},
        {"rec": "admitted", "now_ms": 5.0, "job_id": 1,
         "resume_iteration": 2},
        {"rec": "finished", "now_ms": 9.0, "job_id": 1,
         "from_cache": False, "cache_key": ["g", 1, "pagerank", "x"],
         "file": "job-1-result.npz", "consumed_ms": 8.5},
        {"rec": "admitted", "now_ms": 9.0, "job_id": 2,
         "resume_iteration": 0},
        {"rec": "quarantined", "now_ms": 12.0, "job_id": 2,
         "reason": "poison: failed 3 times"},
        {"rec": "shutdown", "now_ms": 12.0, "clean": True},
    ]
    rec = _recover(jpath, records)
    one, two = rec.job(1), rec.job(2)
    assert one.state == "done" and one.retries == 1
    assert one.result_file == "job-1-result.npz"
    assert one.values.tobytes() == values.tobytes()
    assert one.finished_ms == 9.0 and one.consumed_ms == 8.5
    assert one.slices == 2                      # its journaled slices
    assert ("g", 1, "pagerank", "x") in rec.cache
    assert two.state == "quarantined"
    assert two.quarantine_reason == two.error == "poison: failed 3 times"
    assert two.finished_ms == 12.0 and two.consumed_ms == 0.0
    recovery = rec.metrics()["recovery"]
    assert recovery["requeued"] == 0
    assert recovery["recovered"] - recovery["requeued"] == 2
    assert rec.ledger.snapshot()["default"] == {
        "consumed_ms": 8.5, "slices": 2, "jobs_finished": 1,
        "cache_hits": 0}
    assert rec.store._pins == {}                # terminal jobs released


def test_replay_is_idempotent(jpath):
    _sidecars(jpath)
    first = _recover(jpath, _lifecycle_records())
    before = open(jpath, "rb").read()
    second = GraphService.recover(jpath, graphs={"g": GRAPH})
    assert open(jpath, "rb").read() == before   # replay appends nothing
    for rec in (first, second):
        assert [(j.job_id, j.state, j.snapshot_version,
                 j.resume_from.iteration if j.resume_from else None)
                for j in rec.jobs()] == [(1, "pending", 1, 2),
                                         (2, "pending", 1, None)]
        assert rec.now_ms == 3.5 and rec.store._pins == {("g", 1): 2}


def test_replay_rejects_orphan_records(jpath):
    with pytest.raises(ServeError, match="before its submitted record"):
        _recover(jpath, [
            {"rec": "service_start", "now_ms": 0.0, "version": 3,
             "cluster": {"nodes": 2}},
            {"rec": "slice", "now_ms": 1.0, "job_id": 5, "iteration": 1}])


# -- torn tails across every record kind (satellite: full coverage) ----------

#: A representative full-bodied record per kind; the torn-tail
#: guarantee must hold whatever kind the crash interrupts.
KIND_EXEMPLARS = {
    "service_start": {"version": JOURNAL_VERSION,
                      "cluster": {"nodes": 2}},
    "graph_loaded": {"key": "g", "dataset": "wrn", "version": 1},
    "mutation": {"key": "g", "batch_id": "b" * 16, "from_version": 1,
                 "to_version": 2, "file": "mutation-1.npz"},
    "submitted": {"job_id": 9, "spec": {"graph": "g"},
                  "submitted_ms": 1.0, "snapshot_version": 1},
    "admitted": {"job_id": 9, "resume_iteration": 0},
    "slice": {"job_id": 9, "iteration": 1},
    "checkpointed": {"job_id": 9, "iteration": 1,
                     "file": "job-9-ckpt.npz"},
    "finished": {"job_id": 9, "from_cache": False,
                 "cache_key": ["g", 1, "pagerank", "x"],
                 "file": "job-9-result.npz", "consumed_ms": 2.0},
    "failed": {"job_id": 9, "error": "boom"},
    "retry": {"job_id": 9, "attempt": 1, "backoff_ms": 1.0,
              "error": "boom", "resume_iteration": 1},
    "quarantined": {"job_id": 9, "reason": "poison"},
    "cancelled": {"job_id": 9},
    "shed": {"tenant": "t9", "reason": "queue depth 2/2 (overload)"},
    "idempotency": {"key": "k-1", "job_id": 9},
    "shutdown": {"clean": True, "reason": "drain"},
}


def test_every_record_kind_has_a_torn_tail_exemplar():
    from repro.serve.journal import RECORD_KINDS
    assert set(KIND_EXEMPLARS) == set(RECORD_KINDS)


@pytest.mark.parametrize("kind", sorted(KIND_EXEMPLARS))
def test_torn_tail_tolerated_for_every_record_kind(jpath, kind):
    """A crash mid-append of *any* record kind loses only that line."""
    jrn = JobJournal(jpath)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION)
    jrn.append("submitted", 0.0, job_id=9, spec={"graph": "g"},
               submitted_ms=0.0)
    jrn.close()
    full = json.dumps(dict(KIND_EXEMPLARS[kind], rec=kind, now_ms=5.0))
    for cut in (1, len(full) // 2, len(full) - 1):
        with open(jpath, "a", encoding="utf-8") as f:
            f.write(full[:cut])  # no trailing newline: torn mid-write
        records = read_journal(jpath)
        assert [r["rec"] for r in records] == ["service_start",
                                               "submitted"], \
            f"{kind} torn at byte {cut} leaked into the replay"
        # restore the file for the next cut
        with open(jpath, "w", encoding="utf-8") as f:
            f.write(json.dumps({"rec": "service_start", "now_ms": 0.0,
                                "version": JOURNAL_VERSION}) + "\n")
            f.write(json.dumps({"rec": "submitted", "now_ms": 0.0,
                                "job_id": 9, "spec": {"graph": "g"},
                                "submitted_ms": 0.0}) + "\n")


#: what a replay of the exemplar leaves job 9 as (default: re-queued)
EXEMPLAR_STATES = {"cancelled": "cancelled", "failed": "failed",
                   "finished": "done", "quarantined": "quarantined"}


@pytest.mark.parametrize("kind", sorted(KIND_EXEMPLARS))
def test_intact_append_of_every_kind_survives_replay(jpath, kind):
    """The exemplars are real: appended intact, each kind replays."""
    _sidecars(jpath)
    jrn = JobJournal(jpath, fresh=True)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION,
               cluster={"nodes": 2})
    jrn.append("graph_loaded", 0.0, key="g", dataset=None, version=1)
    if kind != "submitted":
        jrn.append("submitted", 0.0, **KIND_EXEMPLARS["submitted"])
    jrn.append(kind, 5.0, **KIND_EXEMPLARS[kind])
    jrn.close()
    rec = GraphService.recover(jpath, graphs={"g": GRAPH})
    assert rec.job(9).state == EXEMPLAR_STATES.get(kind, "pending")
    assert rec.now_ms == 5.0
    assert rec.store.get("g").version == (2 if kind in ("graph_loaded",
                                                        "mutation") else 1)
    assert rec.idempotent_job_id("k-1") == (9 if kind == "idempotency"
                                            else None)


# -- the idempotency record (new in v2) --------------------------------------

def _submit_records(*keyed):
    """A journal submitting one job per ``(key, job_id)``, each key's
    ``idempotency`` record first (``job_id`` None: the orphan key only)."""
    records = [{"rec": "service_start", "now_ms": 0.0,
                "version": JOURNAL_VERSION, "cluster": {"nodes": 2}},
               {"rec": "graph_loaded", "now_ms": 0.0, "key": "g",
                "version": 1}]
    for key, job_id, orphan in keyed:
        records.append({"rec": "idempotency", "now_ms": 0.0, "key": key,
                        "job_id": job_id})
        if not orphan:
            records.append({"rec": "submitted", "now_ms": 0.0,
                            "job_id": job_id, "spec": {"graph": "g"},
                            "submitted_ms": 0.0})
    return records


def test_idempotency_record_roundtrip(jpath):
    jrn = JobJournal(jpath)
    jrn.append("service_start", 0.0, version=JOURNAL_VERSION,
               cluster={"nodes": 2})
    jrn.append("graph_loaded", 0.0, key="g", version=1)
    jrn.append("idempotency", 0.0, key="client-77", job_id=1)
    jrn.append("submitted", 0.0, job_id=1, spec={"graph": "g"},
               submitted_ms=0.0)
    jrn.close()
    rec = GraphService.recover(jpath, graphs={"g": GRAPH})
    assert rec.idempotent_job_id("client-77") == 1
    # the recovered map dedupes: a resubmit returns the journaled job
    assert rec.submit(JobSpec(graph="g"),
                      idempotency_key="client-77") is rec.job(1)


def test_orphan_idempotency_key_is_dropped(jpath):
    """Key journaled, crash before the submitted record: the submit
    never committed, so replay must forget the key (a resubmit should
    run, not dedupe against a job that does not exist)."""
    rec = _recover(jpath, _submit_records(("k-live", 1, False),
                                          ("k-orphan", 2, True)))
    assert rec.idempotent_job_id("k-live") == 1
    assert rec.idempotent_job_id("k-orphan") is None
    assert [j.job_id for j in rec.jobs()] == [1]
    rerun = rec.submit(JobSpec(graph="g"), idempotency_key="k-orphan")
    assert rerun.job_id == 2 and rec.metrics()["deduped_submits"] == 0


def test_idempotency_last_write_wins(jpath):
    # the service never reuses a key, but replay applies records in
    # order, so the later record wins
    rec = _recover(jpath, _submit_records(("k", 1, False),
                                          ("k", 2, False)))
    assert rec.idempotent_job_id("k") == 2


# -- shutdown reason (new in v2) ---------------------------------------------

def test_shutdown_reason_replayed(jpath):
    """A suspending drain's marker replays as no transition: the
    suspended job is re-queued, and the reason stays in the record."""
    records = _submit_records(("k", 1, False))[:-2] + [
        {"rec": "submitted", "now_ms": 0.0, "job_id": 1,
         "spec": {"graph": "g"}, "submitted_ms": 0.0},
        {"rec": "admitted", "now_ms": 1.0, "job_id": 1,
         "resume_iteration": 0},
        {"rec": "shutdown", "now_ms": 2.0, "clean": True,
         "reason": "sigterm"}]
    rec = _recover(jpath, records)
    assert read_journal(jpath)[-1]["reason"] == "sigterm"
    assert rec.job(1).state == "pending"
    assert rec.metrics()["recovered_jobs"] == 1
    assert rec.now_ms == 2.0


def test_v1_shutdown_without_reason_still_replays(jpath):
    rec = _recover(jpath, [
        {"rec": "service_start", "now_ms": 0.0, "version": 1,
         "cluster": {"nodes": 2}},
        {"rec": "shutdown", "now_ms": 2.0, "clean": True}])
    assert rec.jobs() == [] and rec.now_ms == 2.0


# -- malformed journals raise typed errors naming the line ------------------

@pytest.mark.parametrize("doc, problem", [
    ({"rec": "reticulated", "now_ms": 1.0, "job_id": 1},
     "unknown record kind 'reticulated'"),
    ({"rec": "admitted", "now_ms": 1.0},
     "'admitted' record needs an integer job_id, got None"),
    ({"rec": "slice", "now_ms": 1.0, "job_id": "1", "iteration": 1},
     "'slice' record needs an integer job_id, got '1'"),
    ({"rec": "service_start", "now_ms": 0.0, "version": 99,
      "cluster": {"nodes": 2}},
     "journal format version 99 is not one this reader replays"),
    ({"rec": "retry", "now_ms": 1.0, "job_id": 1},
     "'retry' record needs a int 'attempt', got None"),
    ({"rec": "mutation", "now_ms": 1.0, "key": "g", "batch_id": "b"},
     "'mutation' record needs a str 'file', got None"),
], ids=["unknown-kind", "no-job-id", "string-job-id", "newer-version",
        "retry-without-attempt", "mutation-without-file"])
def test_malformed_record_names_its_line(jpath, doc, problem):
    records = _submit_records(("k", 1, False)) + [doc]
    with pytest.raises(ServeError, match=f"line 5: {re.escape(problem)}"):
        _recover(jpath, records)


def test_a_job_submitted_twice_is_refused(jpath):
    records = _submit_records(("k", 1, False))
    with pytest.raises(ServeError, match="submits job #1 twice"):
        _recover(jpath, records + records[-1:])


# -- what replay cannot restore raises, or recomputes ------------------------

def test_a_journal_without_service_start_is_refused(jpath):
    with pytest.raises(ServeError, match="no service_start record"):
        _recover(jpath, _submit_records(("k", 1, False))[1:])


def test_a_graph_without_dataset_or_object_is_refused(jpath):
    records = _submit_records(("k", 1, False))
    with open(jpath, "w", encoding="utf-8") as f:
        for doc in records:
            f.write(json.dumps(doc) + "\n")
    with pytest.raises(ServeError, match="pass it via graphs="):
        GraphService.recover(jpath)


def test_missing_sidecars(jpath):
    """A finished job whose result sidecar is gone recomputes; a
    mutation whose batch sidecar is gone refuses to replay."""
    records = _submit_records(("k", 1, False)) + [
        {"rec": "finished", "now_ms": 3.0, "job_id": 1,
         "from_cache": False, "cache_key": None,
         "file": "job-1-result.npz", "consumed_ms": 3.0}]
    rec = _recover(jpath, records)
    assert rec.job(1).state == "pending"
    assert rec.metrics()["recovered_jobs"] == 1
    assert rec.ledger.snapshot()["default"]["consumed_ms"] == 0.0
    with pytest.raises(ServeError, match="missing mutation sidecar"):
        _recover(jpath, records + [
            {"rec": "mutation", "now_ms": 4.0, "key": "g",
             "batch_id": "b", "from_version": 1, "to_version": 2,
             "file": "mutation-1.npz"}])


# -- unreadable sidecars: one test per failure class -------------------------

DAMAGE = ("truncated", "empty", "flipped")


def damage(path, how):
    """Truncate ``path`` mid-file, empty it, or flip the last payload
    byte of its first member."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if how == "truncated":
        data = data[:len(data) // 2]
    elif how == "empty":
        data = bytearray()
    else:
        with zipfile.ZipFile(path) as zf:
            info = zf.infolist()[0]
        name_len, extra_len = struct.unpack_from(
            "<HH", data, info.header_offset + 26)
        data[info.header_offset + 30 + name_len + extra_len
             + info.compress_size - 1] ^= 0xFF
    with open(path, "wb") as f:
        f.write(bytes(data))


@pytest.mark.parametrize("how", DAMAGE)
def test_an_unreadable_sidecar_raises_a_serve_error_naming_it(jpath, how):
    """Not ``BadZipFile`` or ``EOFError``: all three readers raise the
    service's own error, naming the file."""
    _sidecars(jpath)
    jrn = JobJournal(jpath)
    for name, load in (
            ("job-1-result.npz", lambda: jrn.load_result(1)),
            ("job-1-ckpt.npz", lambda: jrn.load_checkpoint(1)),
            ("mutation-1.npz", lambda: jrn.load_mutation("mutation-1.npz"))):
        damage(os.path.join(jrn.state_dir, name), how)
        with pytest.raises(ServeError, match=re.escape(repr(name))):
            load()
    jrn.close()


@pytest.mark.parametrize("how", DAMAGE)
def test_recover_recomputes_a_job_whose_result_sidecar_is_unreadable(
        jpath, how):
    jrn = JobJournal(jpath)
    jrn.save_result(1, np.zeros(GRAPH.num_vertices), iterations=9,
                    converged=True, compute_ms=8.5, engine="powergraph",
                    algorithm="pagerank")
    jrn.close()
    damage(os.path.join(jrn.state_dir, "job-1-result.npz"), how)
    rec = _recover(jpath, _submit_records(("k", 1, False)) + [
        {"rec": "finished", "now_ms": 3.0, "job_id": 1,
         "from_cache": False, "cache_key": None,
         "file": "job-1-result.npz", "consumed_ms": 3.0}])
    assert rec.job(1).state == "pending"
    assert rec.metrics()["recovery"]["requeued"] == 1
    rec.run()
    assert rec.job(1).state == "done" and not rec.job(1).from_cache


def test_a_submit_pinned_past_a_skipped_mutation_pins_the_latest(jpath):
    """A batch that no longer applies is skipped, so the version a
    later submit pinned never exists: the job pins the latest."""
    jrn = JobJournal(jpath)
    jrn.save_mutation(1, MutationBatch(remove_src=[0], remove_dst=[5]))
    jrn.close()
    records = _submit_records(("k", 1, True))[:2] + [
        {"rec": "mutation", "now_ms": 1.0, "key": "g", "batch_id": "b",
         "from_version": 1, "to_version": 2, "file": "mutation-1.npz"},
        {"rec": "submitted", "now_ms": 1.0, "job_id": 1,
         "spec": {"graph": "g"}, "submitted_ms": 1.0,
         "snapshot_version": 2}]
    rec = _recover(jpath, records)
    assert rec.metrics()["skipped_mutations"] == 1
    assert rec.job(1).snapshot_version == 1 == rec.store.get("g").version
