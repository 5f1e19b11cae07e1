"""Durable write-ahead journal for the serving layer's job lifecycle.

The :class:`~repro.serve.service.GraphService` of PR 6 kept every queued
and in-flight job in process memory: a crash of the serving loop lost
the queue, the running steppers and the result cache all at once.  This
module gives the service a **write-ahead journal** in the
recovery-by-replay shape GraphX uses for lineage (PAPERS.md): every job
lifecycle transition is appended to a JSONL log, bulk state (delta
checkpoints of in-flight vertex tables, finished results, mutation
batches) lands in an npz sidecar directory next to the log, and
``GraphService.recover()`` rebuilds the service by event sourcing —
:func:`replay_journal` feeds each record to the very transition method
the live service ran when it appended it, with the sidecars supplying
what the live path held in memory.  Finished jobs re-serve from the
result cache; in-flight jobs resume from their last durable checkpoint
instead of recomputing from iteration 0.

Record kinds (one JSON object per line, ``rec`` discriminates)::

    service_start   cluster spec + service budgets (first line)
    graph_loaded    {key, dataset, version}; reloads append again
    mutation        {key, batch_id, from_version, to_version, file}
    submitted       {job_id, spec, submitted_ms, snapshot_version}
    admitted        {job_id, resume_iteration}
    slice           {job_id, iteration} — one per superstep quantum
    checkpointed    {job_id, iteration, file} — durable resume point
    finished        {job_id, from_cache, cache_key, file, consumed_ms} —
                    a cache hit's file is the sidecar of the run it
                    reuses
    failed          {job_id, error}
    retry           {job_id, attempt, backoff_ms, resume_iteration}
    quarantined     {job_id, reason, error}
    cancelled       {job_id}
    shed            {tenant, reason} — overload/deadline admission refusals
    idempotency     {key, job_id} — client-supplied exactly-once submit key
    shutdown        {clean: true, reason} — drain() clean-shutdown marker

The ``idempotency`` record is appended immediately *before* its job's
``submitted`` record, so a crash between the two leaves an orphan key
(a key whose job was never submitted); replay drops orphans — the
submit never took effect, so a client resubmitting under that key must
run, not dedupe against a ghost.

Replay runs no engine: ``admitted`` and ``slice`` only record progress
(the job's state and slice count), and ``checkpointed``, ``shed`` and
``shutdown`` change nothing a replay restores.  When the records run
out, every job the journal left unfinished is re-queued at its newest
durable checkpoint.

Every record also carries ``now_ms`` (the service clock at append time)
so a replay can restore clock continuity.  Appends are flushed line by
line and sidecar files are written via ``os.replace`` so a kill between
any two operations never leaves a torn record — a partially written
trailing line is detected and ignored by :func:`read_journal`.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..errors import ServeError
from ..fault.checkpoint import Checkpoint

#: Journal format version, recorded in the ``service_start`` record.
#: v2 added the ``idempotency`` record and the shutdown ``reason``
#: field; v3 added ``mutation`` records (with npz batch sidecars) and
#: the ``snapshot_version`` field on ``submitted``.  v1/v2 journals
#: replay unchanged — every addition is optional; a newer journal is
#: refused.
JOURNAL_VERSION = 3

#: Record kinds a journal may contain (the wire vocabulary).
RECORD_KINDS = (
    "service_start", "graph_loaded", "mutation", "submitted", "admitted",
    "slice", "checkpointed", "finished", "failed", "retry", "quarantined",
    "cancelled", "shed", "idempotency", "shutdown",
)

#: What numpy and zipfile raise on a truncated, emptied or flipped
#: sidecar, or one lacking a member (``NotImplementedError``, a flipped
#: compression method, is a ``RuntimeError``).
_UNREADABLE = (OSError, EOFError, KeyError, RuntimeError, TypeError,
               ValueError, zipfile.BadZipFile, zlib.error)

#: The kinds that name a job by its integer ``job_id``.
_JOB_KINDS = frozenset((
    "submitted", "admitted", "slice", "checkpointed", "finished", "failed",
    "retry", "quarantined", "cancelled", "idempotency"))

#: Fields replay reads without a default, and the type each must have.
_REQUIRED = {
    "graph_loaded": {"key": str},
    "mutation": {"key": str, "batch_id": str, "file": str},
    "submitted": {"spec": dict},
    "retry": {"attempt": int},
    "idempotency": {"key": str},
}


def _result_name(job_id: int) -> str:
    return f"job-{job_id}-result.npz"


def _jsonify(value: Any) -> Any:
    """Recursively coerce a value into plain JSON types.

    Tuples become lists and numpy scalars become Python scalars, so a
    journaled spec round-trips through ``json`` without a custom
    encoder; ``JobSpec.build_algorithm`` already re-tuples lists.
    """
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


class JobJournal:
    """Append-only JSONL lifecycle log plus an npz state sidecar dir.

    The journal file holds small metadata records; bulk arrays (delta
    checkpoints of in-flight jobs, finished result values) live in
    ``<path>.d/`` and are referenced by filename, mirroring the
    metadata-WAL / bulk-snapshot split of real serving systems.
    """

    def __init__(self, path: str, *, fresh: bool = False) -> None:
        self.path = str(path)
        self.state_dir = self.path + ".d"
        os.makedirs(self.state_dir, exist_ok=True)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._f = open(self.path, "w" if fresh else "a", encoding="utf-8")
        self.records_written = 0

    # -- appending ---------------------------------------------------------

    def append(self, rec: str, now_ms: float, **fields: Any) -> None:
        """Durably append one lifecycle record."""
        if rec not in RECORD_KINDS:
            raise ServeError(f"unknown journal record kind {rec!r}")
        if self._f.closed:
            raise ServeError(f"journal {self.path!r} is closed")
        doc = {"rec": rec, "now_ms": round(float(now_ms), 6)}
        doc.update(_jsonify(fields))
        self._f.write(json.dumps(doc, sort_keys=True) + "\n")
        self._f.flush()
        self.records_written += 1

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()

    @property
    def closed(self) -> bool:
        return self._f.closed

    # -- bulk state sidecars -----------------------------------------------

    def _write_npz(self, name: str, arrays: Dict[str, np.ndarray]) -> str:
        """Atomically write an npz sidecar; returns the bare filename."""
        final = os.path.join(self.state_dir, name)
        tmp = final + ".tmp"
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, final)
        return name

    def _load_npz(self, name: str, build: Callable[[Dict[str, np.ndarray]],
                                                  Any]) -> Any:
        """``build`` over a sidecar's arrays by member name; None if the
        file is missing.

        Every member's CRC-32 is checked before any array is decoded:
        numpy reads only the bytes a member's header asks for, and
        zipfile checks a CRC only at a member's end, so a damaged header
        could otherwise decode to a shorter array.  A truncated, emptied
        or flipped file, or one lacking a member ``build`` reads, raises
        :class:`ServeError` naming it.
        """
        path = os.path.join(self.state_dir, name)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as doc:
                bad = doc.zip.testzip()
                if bad is not None:
                    raise ValueError(f"bad CRC-32 for member {bad!r}")
                return build({member: doc[member] for member in doc.files})
        except _UNREADABLE as exc:
            raise ServeError(f"sidecar {name!r} is unreadable: "
                             f"{type(exc).__name__}: {exc}") from None

    def save_checkpoint(self, job_id: int, ckpt: Checkpoint) -> str:
        """Persist a job's latest delta-reconstructed checkpoint.

        Overwrites the previous checkpoint for the job — recovery only
        ever resumes from the newest durable state.
        """
        return self._write_npz(
            f"job-{job_id}-ckpt.npz",
            {"iteration": np.asarray(ckpt.iteration, dtype=np.int64),
             "values": ckpt.values, "active": ckpt.active})

    def load_checkpoint(self, job_id: int) -> Optional[Checkpoint]:
        """A job's newest durable checkpoint (None if it has none)."""
        return self._load_npz(f"job-{job_id}-ckpt.npz", lambda d: Checkpoint(
            iteration=int(d["iteration"]), values=d["values"],
            active=d["active"], cost_ms=0.0))

    def save_result(self, job_id: int, values: np.ndarray,
                    iterations: int, converged: bool, compute_ms: float,
                    engine: str, algorithm: str) -> str:
        """Persist a finished job's answer for replay re-serving."""
        return self._write_npz(
            _result_name(job_id),
            {"values": np.asarray(values),
             "iterations": np.asarray(int(iterations), dtype=np.int64),
             "converged": np.asarray(bool(converged)),
             "compute_ms": np.asarray(float(compute_ms)),
             "engine": np.asarray(engine),
             "algorithm": np.asarray(algorithm)})

    def save_mutation(self, seq: int, batch) -> str:
        """Persist a mutation batch's arrays for journal replay."""
        return self._write_npz(
            f"mutation-{seq}.npz",
            {"add_src": batch.add_src, "add_dst": batch.add_dst,
             "add_weights": batch.add_weights,
             "remove_src": batch.remove_src,
             "remove_dst": batch.remove_dst,
             "update_src": batch.update_src,
             "update_dst": batch.update_dst,
             "update_weights": batch.update_weights,
             "add_vertices": np.asarray(batch.add_vertices,
                                        dtype=np.int64),
             "remove_vertices": batch.remove_vertices})

    def load_mutation(self, name: str):
        """Rehydrate a journaled mutation batch sidecar."""
        from ..graph.mutations import MutationBatch
        batch = self._load_npz(name, lambda d: MutationBatch(
            add_src=d["add_src"], add_dst=d["add_dst"],
            add_weights=d["add_weights"],
            remove_src=d["remove_src"], remove_dst=d["remove_dst"],
            update_src=d["update_src"], update_dst=d["update_dst"],
            update_weights=d["update_weights"],
            add_vertices=int(d["add_vertices"]),
            remove_vertices=d["remove_vertices"]))
        if batch is None:
            raise ServeError(
                f"journal references missing mutation sidecar {name!r}")
        return batch

    def load_result(self, job_id: int, name: Optional[str] = None):
        """The journaled answer as a :class:`~repro.serve.cache
        .CachedResult` carrying its sidecar's name (None if the sidecar
        is missing).  ``name`` is the ``finished`` record's ``file`` (or
        a spilled cache entry's); without one the job's own sidecar is
        read, and only then is ``job_id`` used."""
        from .cache import CachedResult
        name = name or _result_name(job_id)
        return self._load_npz(name, lambda d: CachedResult(
            values=d["values"], iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            compute_ms=float(d["compute_ms"]), engine=str(d["engine"]),
            algorithm=str(d["algorithm"]), file=name))


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a journal file into its records, oldest first.

    A torn trailing line (the service was killed mid-append) is
    silently dropped; a torn line anywhere *else* is corruption and
    raises — replay must never skip committed history.  So does a
    record of an unknown kind, a job record without an integer
    ``job_id``, a record lacking a field replay reads, and a
    ``service_start`` of a format newer than :data:`JOURNAL_VERSION`:
    each :class:`ServeError` names the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ServeError(f"cannot read journal {path!r}: {exc}") from None
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn trailing append from the crash
            raise ServeError(
                f"journal {path!r} is corrupt at line {i + 1}")
        if not isinstance(doc, dict) or "rec" not in doc:
            raise ServeError(
                f"journal {path!r} line {i + 1} is not a record")
        problem = _malformed(doc)
        if problem is not None:
            raise ServeError(f"journal {path!r} line {i + 1}: {problem}")
        records.append(doc)
    return records


def _malformed(doc: Dict[str, Any]) -> Optional[str]:
    """Why ``doc`` is no record this reader can replay (None: it is)."""
    kind = doc["rec"]
    if kind not in RECORD_KINDS:
        return f"unknown record kind {kind!r}"
    if kind in _JOB_KINDS and type(doc.get("job_id")) is not int:
        return (f"{kind!r} record needs an integer job_id, "
                f"got {doc.get('job_id')!r}")
    for field, kind_of in _REQUIRED.get(kind, {}).items():
        if not isinstance(doc.get(field), kind_of):
            return (f"{kind!r} record needs a {kind_of.__name__} "
                    f"{field!r}, got {doc.get(field)!r}")
    version = doc.get("version", 1)
    if kind == "service_start" and not (
            type(version) is int and 1 <= version <= JOURNAL_VERSION):
        return (f"journal format version {version!r} is not one this "
                f"reader replays (1 to {JOURNAL_VERSION})")
    return None


def replay_journal(records: List[Dict[str, Any]], service,
                   graphs: Optional[Dict[str, Any]] = None) -> None:
    """Re-apply ``records`` to ``service``, oldest first.

    Each record goes through the transition the live service ran when
    it appended it (:meth:`GraphService._replay
    <repro.serve.service.GraphService._replay>`); ``graphs`` supplies
    graph objects for keys journaled without a dataset name.  The
    records come from :func:`read_journal`, which refused any record
    lacking a field replay reads.
    """
    for doc in records:
        service._replay(doc, graphs)
