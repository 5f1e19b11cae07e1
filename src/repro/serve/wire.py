"""JSONL-over-TCP wire protocol for the serving layer.

PR 7 made the :class:`~repro.serve.service.GraphService` crash-safe on
disk; this module puts it on the network, mirroring the ``submit`` /
``serve`` file handoff as a socket protocol so clients and the server
can evolve — and fail — independently, which is GX-Plug's decoupling
story applied to the serving boundary.

The protocol is newline-delimited JSON: every frame is one JSON object
on one line, and a values answer appends its raw bytes (below).
Requests carry ``op`` (the verb), ``v`` (the protocol version), ``req``
(a client-chosen id echoed back as ``re`` so responses can be matched
under pipelining), and op-specific fields.
The schema is versioned and **eagerly validated**: an unknown op, a
missing or mistyped field, an unknown field, or a version mismatch is
answered with an error frame naming the violation — never a closed
socket, never a silently-ignored field.

Request ops::

    hello    {client, session?, lease_ms?}  open or resume a session
    ping     {session}                      heartbeat: renew the lease
    submit   {session, job, idempotency_key?}   queue a job
    mutate   {session, graph, batch, idempotency_key?}  mutate a graph
    poll     {session, job_id, values?}     job state (+ raw values, if done)
    watch    {session, job_id}              stream state-change events
    cancel   {session, job_id}              cancel pending/running job
    stats    {session}                      service metrics + wire counters
    drain    {session, mode}                graceful shutdown

Responses are ``{re, ok: true, ...}`` or ``{re, ok: false, code,
error, ...}``; overload refusals use ``code: "shed"`` and carry
``retry_after_ms`` (the server's backlog-derived resubmit hint) plus
``draining`` — load is turned away with a schedule, never a reset
socket.  The server also pushes unsolicited ``{"event": ...}`` frames:
``job`` state changes to watchers, ``draining`` to everyone when a
graceful shutdown starts, ``expired`` when a session's lease lapses.

**Values are bytes.**  A done job's result crosses the wire the way
GX-Plug moves every block of vertex data between processes — as one
buffer, not element by element.  A ``poll`` with ``values: true`` on a
done job is answered by the one frame that is not a single line: the
JSON header line, whose job doc declares ``values_bytes``,
``values_dtype`` (``dtype.str``) and ``values_shape``, followed by
exactly ``values_bytes`` raw little-endian C-order bytes
(:func:`encode_values`; :func:`decode_values` is the inverse).
Bit patterns (``nan`` payloads, ``-0.0``, ``inf``) survive because no
float is ever printed, and neither side spends time on text.  No
response exceeds ``max_frame_bytes``, header and payload together: an
answer that would is replaced by ``code: "too-large"`` (``bytes``,
``limit``), so a result too big for one frame costs one refused poll,
not the connection.

**Sessions and leases.**  A client opens a session with ``hello`` and
keeps it alive by heartbeating (any valid frame renews the lease, but
``ping`` exists for idle clients).  A session whose lease lapses is
reaped — its connections are closed — which is how the server sheds
half-open connections from crashed clients; the session's *jobs* are
untouched (job identity is the journal's business, not the socket's).
A reconnecting client presents its session id in ``hello`` and resumes
it if still live.

**Exactly-once submits.**  A client that loses its connection mid-
submit cannot know whether the submit landed, so it resubmits under
the same ``idempotency_key``; the service journals the key before the
submitted record, so the resubmit dedupes to the original job — across
reconnects *and* across a server crash + recover.

**Graceful drain.**  SIGTERM (or a ``drain`` frame) broadcasts
``draining``, answers in-flight requests, journals a clean shutdown
with its reason, and closes; with ``mode: "now"`` in-flight jobs are
suspended at their last checkpoint and resume after restart +
``--recover``, with clients reconnecting to the same job ids.
"""

from __future__ import annotations

import json
import math
import re
import selectors
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import check_count
from ..errors import AdmissionError, ReproError, ServeError, WireProtocolError
from .job import JobSpec
from .service import GraphService

#: Wire protocol version, checked on every frame.  v3 sends result
#: values as a raw payload after the header line (:func:`encode_frame`);
#: a v1 or v2 frame is refused.
PROTOCOL_VERSION = 3

#: Fallback resubmit hint (ms) when the service has no latency history.
DEFAULT_RETRY_AFTER_MS = 100.0

#: Default session lease; a session silent this long (no frame on any
#: of its connections) is reaped as half-open.
DEFAULT_LEASE_MS = 30_000.0

#: Hard cap on one frame's length (header line plus any payload), either
#: direction — a peer that streams an unbounded line is cut off instead
#: of ballooning the read buffer, and the server refuses (``too-large``)
#: to send a longer one.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_STR = (str,)
_NUM = (int, float)
_INT = (int,)
_DICT = (dict,)

#: op -> {field: (allowed types, required)}.  ``op``/``v``/``req`` are
#: common to every request and validated separately.
FRAME_SCHEMA: Dict[str, Dict[str, Tuple[tuple, bool]]] = {
    "hello": {"client": (_STR, True), "session": (_STR, False),
              "lease_ms": (_NUM, False)},
    "ping": {"session": (_STR, True)},
    "submit": {"session": (_STR, True), "job": (_DICT, True),
               "idempotency_key": (_STR, False)},
    "mutate": {"session": (_STR, True), "graph": (_STR, True),
               "batch": (_DICT, True), "idempotency_key": (_STR, False)},
    "poll": {"session": (_STR, True), "job_id": (_INT, True),
             "values": ((bool,), False)},
    "watch": {"session": (_STR, True), "job_id": (_INT, True)},
    "cancel": {"session": (_STR, True), "job_id": (_INT, True)},
    "stats": {"session": (_STR, True)},
    "drain": {"session": (_STR, True), "mode": (_STR, False)},
}


def validate_frame(doc: Any) -> str:
    """Eagerly validate one request frame; returns its op.

    Raises :class:`~repro.errors.WireProtocolError` naming the first
    violation: not an object, unknown/missing op, wrong protocol
    version, missing or mistyped required field, or an unknown field
    (typos fail loudly instead of being ignored).
    """
    if not isinstance(doc, dict):
        raise WireProtocolError(f"frame is not an object: {doc!r}")
    op = doc.get("op")
    if op not in FRAME_SCHEMA:
        raise WireProtocolError(
            f"unknown op {op!r}; one of {sorted(FRAME_SCHEMA)}")
    version = doc.get("v")
    if version != PROTOCOL_VERSION:
        raise WireProtocolError(
            f"protocol version mismatch: frame says {version!r}, "
            f"server speaks {PROTOCOL_VERSION}")
    if not isinstance(doc.get("req"), int):
        raise WireProtocolError(f"{op}: 'req' must be an int request id")
    schema = FRAME_SCHEMA[op]
    for name, (types, required) in schema.items():
        if name not in doc:
            if required:
                raise WireProtocolError(f"{op}: missing field {name!r}")
            continue
        value = doc[name]
        if not isinstance(value, types) or isinstance(value, bool) \
                and bool not in types:
            raise WireProtocolError(
                f"{op}: field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}")
    unknown = set(doc) - set(schema) - {"op", "v", "req"}
    if unknown:
        raise WireProtocolError(f"{op}: unknown fields {sorted(unknown)}")
    return op


def encode_frame(doc: Dict[str, Any]) -> bytes:
    """``doc`` as one frame: the bytes of ``json.dumps(doc)`` + newline.

    A job doc whose ``values`` is an array is a values frame: the
    header's job doc declares the array (:func:`encode_values`) in
    place of ``values``, and its raw bytes follow the newline.  The
    result is the whole frame, header plus payload.
    """
    job = doc.get("job")
    values = job.get("values") if isinstance(job, dict) else None
    if not isinstance(values, np.ndarray):
        return (json.dumps(doc) + "\n").encode("utf-8")
    fields, payload = encode_values(values)
    job = {key: value for key, value in job.items() if key != "values"}
    job.update(fields)
    return (json.dumps(dict(doc, job=job)) + "\n").encode("utf-8") \
        + payload


def encode_values(values: np.ndarray) -> Tuple[Dict[str, Any], memoryview]:
    """A result array as job-doc fields plus its bytes, not its digits.

    The payload is the C-contiguous little-endian buffer;
    ``values_bytes`` is its length, ``values_dtype`` the ``dtype.str``
    naming that byte order, ``values_shape`` the shape as a list.
    """
    dtype = values.dtype.newbyteorder("<")
    data = np.ascontiguousarray(values, dtype=dtype)
    return ({"values_bytes": data.nbytes, "values_dtype": dtype.str,
             "values_shape": list(values.shape)},
            memoryview(data.reshape(-1).view(np.uint8)))


#: the ``dtype.str`` forms a values header may name
_VALUES_DTYPE = re.compile(r"[<>|][biuf][0-9]{1,2}")


def values_layout(fields: Dict[str, Any]) -> Tuple[np.dtype, List[int]]:
    """The dtype and shape a values header declares, checked against
    its ``values_bytes`` — before a single payload byte is read.

    Anything but a bool/int/float ``dtype.str``, a list of sizes and a
    length of exactly prod(shape) x itemsize raises
    :class:`~repro.errors.WireProtocolError`.
    """
    try:
        name, shape = fields["values_dtype"], fields["values_shape"]
        size = fields["values_bytes"]
        # matched before numpy parses it: np.dtype() reads some strings
        # as Python syntax and raises what it likes
        if not isinstance(name, str) or not _VALUES_DTYPE.fullmatch(name):
            raise TypeError(f"dtype {name!r} is not a bool/int/float "
                            f"dtype.str")
        dtype = np.dtype(name)
        if dtype.str != name:
            raise TypeError(f"dtype {name!r} is not a dtype.str")
        if not isinstance(shape, list) or not all(
                type(dim) is int and dim >= 0 for dim in shape):
            raise TypeError(f"shape {shape!r} is not a list of sizes")
        if type(size) is not int \
                or size != math.prod(shape) * dtype.itemsize:
            raise ValueError(
                f"{size!r} bytes for shape {shape} of {dtype.str}")
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed values: {exc!r}") from None
    return dtype, shape


def decode_values(fields: Dict[str, Any], payload) -> np.ndarray:
    """Inverse of :func:`encode_values`: a writable array owning its
    memory, native byte order, dtype and shape as computed.

    ``payload`` must hold exactly the ``values_bytes`` the header
    declares; anything :func:`values_layout` refuses, or a payload of
    another length, raises :class:`~repro.errors.WireProtocolError`.
    """
    dtype, shape = values_layout(fields)
    if len(payload) != fields["values_bytes"]:
        raise WireProtocolError(
            f"malformed values: {len(payload)}-byte payload, header "
            f"says {fields['values_bytes']}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).astype(
        dtype.newbyteorder("="))


def _refuse_constant(token: str) -> None:
    raise ValueError(f"non-JSON constant {token}")


class _UnknownSession(ServeError):
    """Internal: frame referenced a session the server doesn't hold.

    Mapped to the ``no-session`` error code, which tells a client its
    lease lapsed or the server restarted — re-``hello`` and retry.
    """


class _Session:
    """One client's lease-kept identity across reconnects."""

    def __init__(self, session_id: str, client: str, lease_ms: float,
                 now: float) -> None:
        self.session_id = session_id
        self.client = client
        self.lease_ms = lease_ms
        self.last_seen = now

    def expired(self, now: float) -> bool:
        return (now - self.last_seen) * 1000.0 > self.lease_ms


class _Conn:
    """One accepted socket with its read/write buffers and watches."""

    def __init__(self, sock: socket.socket, addr, now: float) -> None:
        self.sock = sock
        self.addr = addr
        self.rbuf = b""
        self.wbuf = b""
        self.session: Optional[_Session] = None
        self.opened = now
        self.last_seen = now
        #: job_id -> last pushed (state, slices) snapshot, None before
        #: the first event
        self.watches: Dict[int, Optional[Tuple[str, int]]] = {}


class GraphServiceServer:
    """Serve a :class:`GraphService` over JSONL-on-TCP.

    Single-threaded by design: one selectors loop interleaves socket
    I/O with ``service.step()`` bursts, so the service object is only
    ever touched from the serving thread and stays as deterministic as
    in file mode.  :meth:`request_drain` and :meth:`crash` are the only
    cross-thread entry points (they just set events).

    ``auto_step=False`` freezes the scheduling loop — frames are still
    answered but no job makes progress; tests use it to build
    deterministic backlogs (e.g. to exercise overload sheds).
    """

    #: event counts, kept in :attr:`counts` and surfaced in ``stats``
    COUNTS = ("connections_accepted", "connections_closed",
              "sessions_opened", "sessions_resumed", "sessions_reaped",
              "frames_in", "frames_out", "bad_frames", "sheds_sent",
              "watch_events")

    def __init__(self, service: GraphService, host: str = "127.0.0.1",
                 port: int = 0, *, lease_ms: float = DEFAULT_LEASE_MS,
                 step_burst: int = 8, select_interval_s: float = 0.02,
                 auto_step: bool = True,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 crash_after_steps: Optional[int] = None) -> None:
        for name, value in (("lease_ms", lease_ms),
                            ("select_interval_s", select_interval_s)):
            if not value > 0:
                raise ServeError(f"{name} must be positive, got {value}")
        check_count("step_burst", step_burst, 1)
        check_count("max_frame_bytes", max_frame_bytes, 1)
        if crash_after_steps is not None:
            check_count("crash_after_steps", crash_after_steps, 1)
        self.service = service
        self.lease_ms = float(lease_ms)
        self.step_burst = int(step_burst)
        self.select_interval_s = float(select_interval_s)
        self.auto_step = auto_step
        self.max_frame_bytes = int(max_frame_bytes)
        #: chaos hook: die (as :meth:`crash`) after exactly this many
        #: successful scheduling rounds — the soak's deterministic kill
        self.crash_after_steps = crash_after_steps
        #: scheduling rounds this server generation has run
        self.steps_taken = 0
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self._sessions: Dict[str, _Session] = {}
        self._next_session = 1
        self._conns: Dict[socket.socket, _Conn] = {}
        self._sel = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self._listener.setblocking(False)
        #: the bound (host, port) — port 0 resolves here
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._sel.register(self._listener, selectors.EVENT_READ)
        self._stop = threading.Event()
        self._crashed = threading.Event()
        self._drain_reason: Optional[str] = None
        self._drain_mode = "finish"
        self._drained = False

    # -- lifecycle (cross-thread safe: flags only) ---------------------------------------

    def request_drain(self, reason: str = "drain",
                      mode: str = "finish") -> None:
        """Ask the serving loop to drain and exit.

        ``mode="finish"`` runs in-flight jobs to completion first (the
        wire ``drain`` frame's default); ``mode="now"`` suspends them
        at their last durable checkpoint so a restarted server's
        ``recover()`` resumes them — the SIGTERM path.
        """
        if mode not in ("finish", "now"):
            raise ServeError(f"drain mode must be 'finish' or 'now', "
                             f"got {mode!r}")
        self._drain_mode = mode
        self._drain_reason = reason

    def crash(self) -> None:
        """Simulate a server crash: stop the loop abruptly — no drain,
        no goodbye frames, nothing journaled beyond what the
        write-ahead journal already holds.  The chaos soak's kill."""
        self._crashed.set()
        self._stop.set()

    def serve_in_thread(self, name: str = "wire-server"
                        ) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (tests/soaks)."""
        thread = threading.Thread(target=self.serve_forever, name=name,
                                  daemon=True)
        thread.start()
        return thread

    # -- the serving loop ----------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until :meth:`request_drain` or :meth:`crash`."""
        try:
            while not self._stop.is_set():
                if self._drain_reason is not None:
                    self._graceful_drain()
                    return
                self._pump_io()
                self._reap_half_open()
                if self.auto_step:
                    self._step_service()
                    self._push_watch_events()
        finally:
            self._close_all(abrupt=self._crashed.is_set())

    def _pump_io(self) -> None:
        timeout = (0.0 if self._service_busy() and self.auto_step
                   else self.select_interval_s)
        for key, mask in self._sel.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
                continue
            conn = self._conns.get(key.fileobj)
            if conn is None:  # pragma: no cover - unregister race
                continue
            if mask & selectors.EVENT_READ:
                self._read(conn)
            if mask & selectors.EVENT_WRITE and conn.sock in self._conns:
                self._flush(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:  # pragma: no cover - listener closed
                return
            sock.setblocking(False)
            conn = _Conn(sock, addr, time.monotonic())
            self._conns[sock] = conn
            self._sel.register(sock, selectors.EVENT_READ)
            self.counts["connections_accepted"] += 1

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            if conn.rbuf.strip():
                # the peer half-closed inside a frame: say so before
                # closing, in case it is still reading
                self.counts["bad_frames"] += 1
                self._send(conn, {"ok": False, "code": "bad-json",
                                  "error": f"truncated frame: connection "
                                           f"closed after {len(conn.rbuf)} "
                                           f"bytes of an unterminated line"})
            self._close(conn)
            return
        conn.rbuf += data
        if b"\n" in data:
            *lines, conn.rbuf = conn.rbuf.split(b"\n")
            for line in lines:
                if len(line) >= self.max_frame_bytes:
                    self._refuse_oversized(conn)
                    return
                if line.strip():
                    self._handle_line(conn, line)
                    if conn.sock not in self._conns:
                        return  # the frame closed the connection
        # the cap is per frame: only the unterminated remainder counts
        if len(conn.rbuf) >= self.max_frame_bytes:
            self._refuse_oversized(conn)

    def _refuse_oversized(self, conn: _Conn) -> None:
        self.counts["bad_frames"] += 1
        self._send(conn, {"ok": False, "code": "frame-too-large",
                          "error": f"frame exceeds "
                                   f"{self.max_frame_bytes} bytes"})
        self._close(conn)

    def _handle_line(self, conn: _Conn, line: bytes) -> None:
        self.counts["frames_in"] += 1
        conn.last_seen = time.monotonic()
        try:
            doc = json.loads(line.decode("utf-8"),
                             parse_constant=_refuse_constant)
        except ValueError as exc:  # bad UTF-8, bad JSON, NaN/Infinity
            self.counts["bad_frames"] += 1
            self._send(conn, {"ok": False, "code": "bad-json",
                              "error": f"unparseable frame: {exc}"})
            return
        req = doc.get("req") if isinstance(doc, dict) else None
        try:
            op = validate_frame(doc)
        except WireProtocolError as exc:
            self.counts["bad_frames"] += 1
            self._send(conn, {"re": req if isinstance(req, int) else None,
                              "ok": False, "code": "bad-frame",
                              "error": str(exc),
                              "v": PROTOCOL_VERSION})
            return
        handler = getattr(self, f"_op_{op}")
        try:
            resp = handler(conn, doc)
        except _UnknownSession as exc:
            resp = {"ok": False, "code": "no-session", "error": str(exc)}
        except ReproError as exc:
            resp = {"ok": False, "code": "serve-error",
                    "error": f"{type(exc).__name__}: {exc}"}
        resp.setdefault("ok", True)
        resp["re"] = doc["req"]
        resp["v"] = PROTOCOL_VERSION
        self._send(conn, resp)

    # -- op handlers ---------------------------------------------------------------------

    def _require_session(self, conn: _Conn, doc: Dict[str, Any]
                         ) -> _Session:
        sess = self._sessions.get(doc["session"])
        if sess is None:
            raise _UnknownSession(
                f"unknown session {doc['session']!r} (lease expired "
                f"or server restarted; hello again)")
        sess.last_seen = time.monotonic()
        conn.session = sess
        return sess

    def _op_hello(self, conn: _Conn, doc: Dict[str, Any]
                  ) -> Dict[str, Any]:
        lease_ms = float(doc.get("lease_ms", self.lease_ms))
        if not 0 < lease_ms < math.inf:
            return {"ok": False, "code": "bad-frame",
                    "error": f"lease_ms must be positive and finite, "
                             f"got {lease_ms}"}
        wanted = doc.get("session")
        resumed = wanted is not None and wanted in self._sessions
        if resumed:
            sess = self._sessions[wanted]
            sess.last_seen = time.monotonic()
            sess.lease_ms = lease_ms
            self.counts["sessions_resumed"] += 1
        else:
            session_id = f"s{self._next_session}"
            self._next_session += 1
            sess = _Session(session_id, doc["client"], lease_ms,
                            time.monotonic())
            self._sessions[session_id] = sess
            self.counts["sessions_opened"] += 1
        conn.session = sess
        return {"session": sess.session_id, "resumed": resumed,
                "lease_ms": sess.lease_ms,
                "draining": self._drain_reason is not None
                or self.service.draining}

    def _op_ping(self, conn: _Conn, doc: Dict[str, Any]
                 ) -> Dict[str, Any]:
        sess = self._require_session(conn, doc)
        return {"session": sess.session_id, "lease_ms": sess.lease_ms}

    def _retry_after_ms(self) -> float:
        estimate = self.service._estimate_wait_ms()
        if estimate is None or estimate <= 0:
            return DEFAULT_RETRY_AFTER_MS
        return float(estimate)

    def _op_submit(self, conn: _Conn, doc: Dict[str, Any]
                   ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        if self._drain_reason is not None or self.service.draining:
            self.counts["sheds_sent"] += 1
            return {"ok": False, "code": "shed", "draining": True,
                    "retry_after_ms": self._retry_after_ms(),
                    "error": "service is draining"}
        key = doc.get("idempotency_key")
        deduped = (key is not None
                   and self.service.idempotent_job_id(key) is not None)
        try:
            # the wire carries the journal's lossless spec form, so a
            # job means the same thing submitted locally or remotely
            spec = JobSpec.from_doc(doc["job"])
        except (ServeError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "code": "bad-job",
                    "error": f"bad job spec: {exc}"}
        try:
            # a known key answers with its job, and the service counts it
            job = self.service.submit(spec, idempotency_key=key)
        except AdmissionError as exc:
            self.counts["sheds_sent"] += 1
            return {"ok": False, "code": "shed", "draining": False,
                    "retry_after_ms": self._retry_after_ms(),
                    "error": str(exc)}
        return {"job_id": job.job_id, "state": job.state,
                "deduped": deduped}

    def _op_mutate(self, conn: _Conn, doc: Dict[str, Any]
                   ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        if self._drain_reason is not None or self.service.draining:
            self.counts["sheds_sent"] += 1
            return {"ok": False, "code": "shed", "draining": True,
                    "retry_after_ms": self._retry_after_ms(),
                    "error": "service is draining"}
        try:
            # the wire carries the batch's to_doc() form; the service
            # dedupes by idempotency key (or content fingerprint), so a
            # retried frame after a dropped connection applies once
            summary = self.service.mutate(
                doc["graph"], doc["batch"],
                idempotency_key=doc.get("idempotency_key"))
        except ReproError as exc:
            return {"ok": False, "code": "bad-batch",
                    "error": f"{type(exc).__name__}: {exc}"}
        return dict(summary)

    def _job_doc(self, job, include_values: bool) -> Dict[str, Any]:
        doc = job.describe()
        if include_values and job.state == "done" \
                and job.values is not None:
            doc["values"] = job.values      # encode_frame sends its bytes
        return doc

    def _op_poll(self, conn: _Conn, doc: Dict[str, Any]
                 ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        job = self.service.job(doc["job_id"])
        return {"job": self._job_doc(job, doc.get("values", False))}

    def _op_watch(self, conn: _Conn, doc: Dict[str, Any]
                  ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        job = self.service.job(doc["job_id"])
        if job.finished:
            # nothing will change: answer terminally, register nothing
            return {"job": self._job_doc(job, False), "terminal": True}
        conn.watches[job.job_id] = (job.state, job.slices)
        return {"job": self._job_doc(job, False), "terminal": False}

    def _op_cancel(self, conn: _Conn, doc: Dict[str, Any]
                   ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        changed = self.service.cancel(doc["job_id"])
        job = self.service.job(doc["job_id"])
        return {"cancelled": changed, "state": job.state}

    def _op_stats(self, conn: _Conn, doc: Dict[str, Any]
                  ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        metrics = self.service.metrics()
        return {"metrics": metrics, "recovery": metrics["recovery"],
                "wire": self.wire_stats()}

    def _op_drain(self, conn: _Conn, doc: Dict[str, Any]
                  ) -> Dict[str, Any]:
        self._require_session(conn, doc)
        mode = doc.get("mode", "finish")
        try:
            self.request_drain(reason="drain frame", mode=mode)
        except ServeError as exc:
            return {"ok": False, "code": "bad-frame", "error": str(exc)}
        return {"draining": True, "mode": mode}

    # -- service stepping and notifications ----------------------------------------------

    def _service_busy(self) -> bool:
        svc = self.service
        return bool(len(svc.queue) or len(svc.scheduler) or svc._waiters)

    def _step_service(self) -> None:
        for _ in range(self.step_burst):
            if not self._service_busy():
                return
            try:
                if not self.service.step():
                    return
            except ReproError:  # pragma: no cover - service invariant
                return
            self.steps_taken += 1
            if self.crash_after_steps is not None \
                    and self.steps_taken >= self.crash_after_steps:
                self.crash()
                return

    def _push_watch_events(self) -> None:
        for conn in list(self._conns.values()):
            if not conn.watches:
                continue
            for job_id in list(conn.watches):
                job = self.service._jobs.get(job_id)
                if job is None:  # pragma: no cover - cancelled+purged
                    del conn.watches[job_id]
                    continue
                snap = (job.state, job.slices)
                if snap == conn.watches[job_id]:
                    continue
                conn.watches[job_id] = snap
                event = {"event": "job", "job_id": job_id,
                         "state": job.state, "slices": job.slices,
                         "from_cache": job.from_cache,
                         "terminal": job.finished}
                if job.finished:
                    event["error"] = job.error
                    del conn.watches[job_id]
                self.counts["watch_events"] += 1
                self._send(conn, event)
                if conn.session is not None:
                    # a live watch is a heartbeat: the client is
                    # blocked reading, not gone
                    conn.session.last_seen = time.monotonic()

    def _reap_half_open(self) -> None:
        now = time.monotonic()
        expired = [sid for sid, sess in self._sessions.items()
                   if sess.expired(now)]
        for sid in expired:
            sess = self._sessions.pop(sid)
            self.counts["sessions_reaped"] += 1
            for conn in [c for c in self._conns.values()
                         if c.session is sess]:
                self._send(conn, {"event": "expired",
                                  "session": sess.session_id})
                self._flush(conn)
                self._close(conn)
        # connections that never said hello get the same patience
        for conn in [c for c in self._conns.values()
                     if c.session is None]:
            if (now - conn.last_seen) * 1000.0 > self.lease_ms:
                self._close(conn)

    def _graceful_drain(self) -> None:
        reason = self._drain_reason or "drain"
        for conn in list(self._conns.values()):
            self._send(conn, {"event": "draining", "reason": reason,
                              "mode": self._drain_mode})
            self._flush(conn)
        self.service.drain(reason=reason,
                           finish_running=self._drain_mode == "finish")
        self._drained = True
        # answer anything that raced in while draining, then push the
        # final job states to watchers and say goodbye
        self._pump_io()
        self._push_watch_events()
        for conn in list(self._conns.values()):
            self._send(conn, {"event": "bye", "reason": reason})
            self._flush(conn)
        self._close_all(abrupt=False)
        self._stop.set()

    # -- plumbing ------------------------------------------------------------------------

    def _send(self, conn: _Conn, doc: Dict[str, Any]) -> None:
        if conn.sock not in self._conns:
            return
        frame = encode_frame(doc)
        if len(frame) > self.max_frame_bytes:
            # the peer's reader cuts off at the same cap and could
            # never resynchronise: refuse by name, keep the connection
            frame = encode_frame({
                "re": doc.get("re"), "ok": False, "code": "too-large",
                "error": f"response of {len(frame)} bytes exceeds the "
                         f"{self.max_frame_bytes}-byte frame cap",
                "bytes": len(frame), "limit": self.max_frame_bytes,
                "v": PROTOCOL_VERSION})
        conn.wbuf += frame
        self.counts["frames_out"] += 1
        self._flush(conn)
        if conn.sock in self._conns and conn.wbuf:
            self._sel.modify(conn.sock,
                             selectors.EVENT_READ | selectors.EVENT_WRITE)

    def _flush(self, conn: _Conn) -> None:
        while conn.wbuf:
            try:
                sent = conn.sock.send(conn.wbuf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close(conn)
                return
            conn.wbuf = conn.wbuf[sent:]
        if conn.sock in self._conns:
            self._sel.modify(conn.sock, selectors.EVENT_READ)

    def _close(self, conn: _Conn) -> None:
        if conn.sock not in self._conns:
            return
        del self._conns[conn.sock]
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        self.counts["connections_closed"] += 1

    def _close_all(self, abrupt: bool) -> None:
        for conn in list(self._conns.values()):
            if not abrupt:
                self._flush(conn)
            self._close(conn)
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._sel.close()

    def wire_stats(self) -> Dict[str, Any]:
        """Connection/session counters for ``stats`` and trace JSON."""
        return {**self.counts,
                # the service counts the event, wherever it came from
                "deduped_submits": self.service.counts["deduped_submits"],
                "sessions_live": len(self._sessions),
                "connections_live": len(self._conns),
                "protocol_version": PROTOCOL_VERSION,
                "draining": (self._drain_reason is not None
                             or self.service.draining)}
