"""Durable write-ahead journal for the serving layer's job lifecycle.

Without it the :class:`~repro.serve.service.GraphService` keeps every
queued and in-flight job in process memory, and a crash of the serving
loop loses the queue, the running steppers and the result cache at
once.  The journal is recovery by replay, the shape GraphX uses for
lineage (PAPERS.md): every lifecycle transition is one JSON line here,
bulk state (delta checkpoints of in-flight vertex tables, finished
results, mutation batches) lands in an npz sidecar directory next to
the log, and ``GraphService.recover()`` rebuilds the service by event
sourcing.

The record is the transition's argument.  The live service builds each
record once and hands it to ``GraphService._apply``, which writes it
and runs its kind's transition from one table
(``GraphService._TRANSITIONS``); :func:`replay_journal` folds the
records :func:`read_journal` returns through that same ``_apply`` with
writing off, the transitions reading back from the sidecars what the
live path held in memory.  A transition's keyword parameters are its
record's fields (docs/serving.md tabulates them): one without a default
is a field every record of the kind carries, of its annotated type, and
:func:`read_journal` refuses a record lacking it or carrying a field no
parameter names.

Replay runs no engine: ``admitted`` and ``slice`` only record progress,
and ``service_start``, ``shed`` and ``shutdown`` change nothing a replay
restores.  When the records run out, every job the journal left
unfinished is re-queued at the checkpoint its newest ``checkpointed``
record names.  An ``idempotency`` record lands just before its job's
``submitted`` record; a key whose job the crash cut off is dropped.

Every record also carries ``now_ms`` (the service clock at append time)
so a replay can restore clock continuity.  Appends are flushed line by
line and sidecar files are written via ``os.replace`` so a kill between
any two operations never leaves a torn record — a partially written
trailing line is detected and ignored by :func:`read_journal`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import zipfile
import zlib
from typing import (Any, Callable, Dict, List, Optional, Tuple,
                    get_type_hints)

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
        os.makedirs(self.state_dir, exist_ok=True)   # and its parent
        if not fresh and os.path.exists(self.path):
            # the unterminated tail a crash left was never committed
            # (read_journal drops it): cut it, or the next append would
            # complete it into a corrupt line
            with open(self.path, "rb+") as f:
                f.truncate(f.read().rfind(b"\n") + 1)
        self._f = open(self.path, "w" if fresh else "a", encoding="utf-8")
        self.records_written = 0

    # -- appending ---------------------------------------------------------

    def append(self, rec: str, now_ms: float, **fields: Any) -> None:
        """Append one lifecycle record and flush it, without ``fsync``:
        it survives a process kill, not a power loss."""
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

    def load_checkpoint(self, job_id: int,
                        name: Optional[str] = None) -> Optional[Checkpoint]:
        """The checkpoint in sidecar ``name`` (a ``checkpointed`` record's
        ``file``; default the job's own), None if it is missing."""
        name = name or f"job-{job_id}-ckpt.npz"
        return self._load_npz(name, lambda d: Checkpoint(
            iteration=int(d["iteration"]), values=d["values"],
            active=d["active"], cost_ms=0.0))

    def save_result(self, job_id: int, values: np.ndarray,
                    iterations: int, converged: bool, compute_ms: float,
                    engine: str, algorithm: str) -> str:
        """Persist a finished job's answer for replay re-serving."""
        return self._write_npz(
            f"job-{job_id}-result.npz",
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
        name = name or f"job-{job_id}-result.npz"
        return self._load_npz(name, lambda d: CachedResult(
            values=d["values"], iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            compute_ms=float(d["compute_ms"]), engine=str(d["engine"]),
            algorithm=str(d["algorithm"]), file=name))


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a journal file into its records, oldest first.

    Record ``k`` is line ``k + 1``.  A torn final line (killed
    mid-append, it lacks its newline) is silently dropped; any other
    line that is no record this reader replays (one that does not
    parse, a blank one, one lacking a field its transition needs or
    carrying one it does not take, a newer format) raises a
    :class:`ServeError` naming the line: replay never skips history.
    """
    try:
        with open(path, "rb") as f:
            # a record is committed once its newline lands: the last
            # piece is the append a crash cut short (empty if none)
            lines = f.read().split(b"\n")[:-1]
    except OSError as exc:
        raise ServeError(f"cannot read journal {path!r}: {exc}") from None
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines, 1):
        try:
            doc = json.loads(line.decode("utf-8"))
        except ValueError:
            raise ServeError(
                f"journal {path!r} is corrupt at line {i}") from None
        problem = _malformed(doc)
        if problem is not None:
            raise ServeError(f"journal {path!r} line {i}: {problem}")
        records.append(doc)
    return records


@functools.lru_cache(maxsize=None)
def _fields(kind: str) -> Tuple[Dict[str, type], Optional[frozenset]]:
    """From ``kind``'s transition's keyword parameters: the fields every
    record carries, with their types, and all it may carry (None: any)."""
    from .service import GraphService
    transition = GraphService._TRANSITIONS[kind]
    params = inspect.signature(transition).parameters.values()
    hints = get_type_hints(transition)
    known = frozenset(p.name for p in params if p.kind is p.KEYWORD_ONLY)
    needed = {p.name: hints[p.name] for p in params
              if p.name in known and p.default is p.empty}
    if any(p.kind is p.VAR_KEYWORD for p in params):
        known = None
    return needed, known


def _malformed(doc: Dict[str, Any]) -> Optional[str]:
    """Why ``doc`` is no record this reader can replay (None: it is)."""
    if not isinstance(doc, dict) or "rec" not in doc:
        return "not a record"
    kind = doc["rec"]
    if kind not in RECORD_KINDS:
        return f"unknown record kind {kind!r}"
    needed, known = _fields(kind)
    for field, kind_of in needed.items():
        value = doc.get(field)
        if type(value) is not kind_of:
            what = ("an integer job_id" if field == "job_id"
                    else f"a {kind_of.__name__} {field!r}")
            return f"{kind!r} record needs {what}, got {value!r}"
    unknown = [] if known is None else sorted(
        set(doc) - known - {"rec", "now_ms"})
    if unknown:
        return f"{kind!r} record has no field {unknown[0]!r}"
    version = doc.get("version", 1)
    if kind == "service_start" and not (
            type(version) is int and 1 <= version <= JOURNAL_VERSION):
        return (f"journal format version {version!r} is not one this "
                f"reader replays (1 to {JOURNAL_VERSION})")
    return None


def replay_journal(records: List[Dict[str, Any]], service,
                   graphs: Optional[Dict[str, Any]] = None) -> None:
    """Fold ``records`` (from :func:`read_journal`) through
    ``service``'s ``_apply``, oldest first, with writing off.  The
    transitions read back from the sidecars what the live path held in
    memory; ``graphs`` supplies what no sidecar holds: graph objects for
    keys journaled without a dataset name."""
    graphs = graphs or {}
    for line, doc in enumerate(records, 1):
        graph = graphs.get(doc["key"]) if doc["rec"] == "graph_loaded" \
            else None
        try:
            service._apply(doc, graph, replayed=True)
        except ServeError as exc:
            raise ServeError(f"journal line {line} ({doc['rec']!r}): "
                             f"{exc}") from exc
