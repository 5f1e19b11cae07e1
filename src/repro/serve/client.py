"""Robust client for the serving layer's JSONL-over-TCP protocol.

:class:`GraphClient` is the other half of :mod:`repro.serve.wire`: it
owns every client-side failure policy the ISSUE's failure-mode matrix
needs, so callers see only "the answer" or a typed
:class:`~repro.errors.WireError`:

* **per-request timeouts** — every round trip has a deadline; a silent
  server yields :class:`~repro.errors.WireTimeout`, never a hang;
* **reconnect with exponential backoff + jitter** — a dropped or
  refused connection is retried on a doubling schedule with seeded
  jitter (deterministic in tests, decorrelated in fleets); the delays
  actually slept are recorded on ``last_backoff_schedule`` and carried
  by :class:`~repro.errors.WireUnavailable` when the budget runs out;
* **session resume** — the client re-``hello``\\ s with its previous
  session id after every reconnect, and transparently re-hellos when
  the server answers ``no-session`` (lease lapsed / server restarted);
* **heartbeat leases** — a daemon thread pings inside the lease period
  so an idle client is not reaped as half-open;
* **idempotent resubmit** — ops are retried across reconnects only
  when that is safe: ``submit`` joins the retry-safe set only when the
  caller supplies an ``idempotency_key``, in which case the journal
  dedupes the replay and the client simply learns the original job id.

Overload and drain refusals surface as :class:`~repro.errors.WireShed`
with the server's ``retry_after_ms`` hint; :meth:`submit` can honour
it automatically (``retries=``), turning shed-then-admit into one call.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import (ServeError, WireError, WireProtocolError, WireShed,
                      WireTimeout, WireUnavailable)
from .job import JobSpec
from .wire import (MAX_FRAME_BYTES, PROTOCOL_VERSION, decode_values,
                   encode_frame, values_layout)

#: Ceiling (s) of one reconnect backoff delay before jitter.
BACKOFF_MAX_S = 2.0


class GraphClient:
    """Fault-tolerant client for a :class:`GraphServiceServer`.

    Thread-compatible: one lock serialises round trips, so the
    heartbeat thread and the caller never interleave frames.  ``watch``
    streams are read under the same lock one frame at a time, parking
    unrelated pushed events in a buffer.
    """

    #: robustness counts, kept in :attr:`counts`: reconnect cycles,
    #: operations retried after one, re-hellos after a lost session,
    #: shed answers, and reads or waits that ran out of time
    COUNTS = ("reconnects", "retried_ops", "rehellos", "sheds_seen",
              "timeouts")

    def __init__(self, host: str, port: int, *, client_name: str = "client",
                 timeout_s: float = 5.0, lease_ms: float = 30_000.0,
                 connect_attempts: int = 5, backoff_base_s: float = 0.05,
                 jitter_seed: int = 0, heartbeat: bool = True,
                 sleep=time.sleep) -> None:
        if timeout_s <= 0:
            raise ServeError(f"timeout_s must be positive, got {timeout_s}")
        if connect_attempts < 1:
            raise ServeError(f"connect_attempts must be >= 1, "
                             f"got {connect_attempts}")
        self.host = host
        self.port = port
        self.client_name = client_name
        self.timeout_s = float(timeout_s)
        self.lease_ms = float(lease_ms)
        self.connect_attempts = int(connect_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self._jitter = random.Random(jitter_seed)
        self._sleep = sleep
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        self._rbuf = b""
        self._next_req = 1
        self.session_id: Optional[str] = None
        #: pushed {"event": ...} frames read while waiting for a
        #: response; drained by :meth:`events` / :meth:`watch`
        self._events: deque = deque()
        #: delays (s) slept during the most recent reconnect cycle
        self.last_backoff_schedule: Tuple[float, ...] = ()
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self._closed = False
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        self.connect()
        if heartbeat:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop, name="wire-heartbeat",
                daemon=True)
            self._hb_thread.start()

    # -- connection management -----------------------------------------------------------

    def connect(self) -> None:
        """(Re)connect and (re)establish the session, with backoff.

        Raises :class:`WireUnavailable` — carrying the backoff schedule
        that was actually applied — once ``connect_attempts`` direct
        attempts all fail.
        """
        with self._lock:
            self._teardown_socket()
            schedule: List[float] = []
            last_error: Optional[Exception] = None
            for attempt in range(self.connect_attempts):
                try:
                    sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout_s)
                    sock.settimeout(self.timeout_s)
                    self._sock = sock
                    self._rbuf = b""
                    self._hello()
                    self.last_backoff_schedule = tuple(schedule)
                    return
                except (OSError, WireError) as exc:
                    last_error = exc
                    self._teardown_socket()
                    if attempt + 1 >= self.connect_attempts:
                        break
                    delay = min(self.backoff_base_s * (2 ** attempt),
                                BACKOFF_MAX_S)
                    # full jitter: decorrelates a reconnect stampede
                    delay *= 0.5 + self._jitter.random()
                    schedule.append(delay)
                    self._sleep(delay)
            self.last_backoff_schedule = tuple(schedule)
            raise WireUnavailable(
                f"server {self.host}:{self.port} unreachable after "
                f"{self.connect_attempts} attempts "
                f"(last error: {last_error})",
                backoff_schedule=schedule)

    def _hello(self) -> None:
        doc: Dict[str, Any] = {"client": self.client_name,
                               "lease_ms": self.lease_ms}
        if self.session_id is not None:
            doc["session"] = self.session_id
        resp = self._roundtrip_once("hello", doc)
        self.session_id = resp["session"]
        self.session_resumed = resp.get("resumed", False)
        self.server_draining = resp.get("draining", False)

    def _teardown_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None
        self._rbuf = b""

    def close(self) -> None:
        """Stop the heartbeat and close the socket (idempotent)."""
        self._closed = True
        self._hb_stop.set()
        if self._hb_thread is not None and \
                self._hb_thread is not threading.current_thread():
            self._hb_thread.join(timeout=2.0)
        with self._lock:
            self._teardown_socket()

    def __enter__(self) -> "GraphClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framing -------------------------------------------------------------------------

    def _send_frame(self, doc: Dict[str, Any]) -> None:
        assert self._sock is not None
        self._sock.sendall(encode_frame(doc))

    def _read_frame(self, deadline: float) -> Dict[str, Any]:
        """The next frame; a values frame's payload is read (never
        scanned) and decoded to an ndarray under its job doc's
        ``values``."""
        line = self._read_line(deadline)
        try:
            frame = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise self._desynced(
                f"unparseable frame from server: {exc}") from None
        if not isinstance(frame, dict):
            raise self._desynced(
                f"non-object frame from server: {frame!r}")
        job = frame.get("job")
        if isinstance(job, dict) and "values_bytes" in job:
            try:
                values_layout(job)
            except WireProtocolError as exc:
                raise self._desynced(str(exc)) from None
            size = job["values_bytes"]
            if len(line) + 1 + size > MAX_FRAME_BYTES:
                raise self._desynced(
                    f"oversized frame from server: {size}-byte values "
                    f"after a {len(line) + 1}-byte header")
            job["values"] = decode_values(job,
                                          self._read_payload(size, deadline))
        return frame

    def _read_line(self, deadline: float) -> bytes:
        """The next header line, without its newline; the cap counts
        only the unterminated remainder, not frames already whole."""
        end = self._rbuf.find(b"\n")
        while end < 0:
            if len(self._rbuf) >= MAX_FRAME_BYTES:
                raise self._desynced("oversized frame from server")
            seen = len(self._rbuf)
            self._rbuf += self._recv(deadline)
            end = self._rbuf.find(b"\n", seen)
        if end >= MAX_FRAME_BYTES:
            raise self._desynced("oversized frame from server")
        line, self._rbuf = self._rbuf[:end], self._rbuf[end + 1:]
        return line

    def _recv(self, deadline: float, into: Optional[memoryview] = None):
        """One read before ``deadline``: the bytes that arrived or,
        reading ``into`` a buffer, how many landed there.  A timeout or
        a broken connection drops the socket, so no part of a frame is
        ever left behind to be read as the next one."""
        budget = deadline - time.monotonic()
        try:
            if budget <= 0:
                raise socket.timeout
            self._sock.settimeout(budget)
            data = (self._sock.recv(65536) if into is None
                    else self._sock.recv_into(into))
        except socket.timeout:
            self.counts["timeouts"] += 1
            self._teardown_socket()
            raise WireTimeout(
                f"no response within {self.timeout_s:.3f}s") from None
        except OSError:
            self._teardown_socket()
            raise
        if not data:
            self._teardown_socket()
            raise ConnectionResetError("server closed the connection")
        return data

    def _read_payload(self, size: int, deadline: float) -> bytearray:
        """Exactly ``size`` bytes, into one buffer allocated up front."""
        payload = bytearray(size)
        have = min(size, len(self._rbuf))
        payload[:have] = self._rbuf[:have]
        self._rbuf = self._rbuf[have:]
        view = memoryview(payload)
        while have < size:
            have += self._recv(deadline, view[have:])
        return payload

    def _desynced(self, message: str) -> WireProtocolError:
        """The stream can't be trusted past this frame: drop the socket
        so the next op reconnects and re-hellos instead of re-reading
        the same bytes."""
        self._teardown_socket()
        return WireProtocolError(message)

    def _roundtrip_once(self, op: str, fields: Dict[str, Any]
                        ) -> Dict[str, Any]:
        """One request/response cycle on the live socket; no retry."""
        req = self._next_req
        self._next_req += 1
        doc = {"op": op, "v": PROTOCOL_VERSION, "req": req}
        doc.update(fields)
        self._send_frame(doc)
        deadline = time.monotonic() + self.timeout_s
        while True:
            frame = self._read_frame(deadline)
            if "event" in frame:
                self._events.append(frame)
                continue
            if frame.get("re") != req:
                # stale response from before a timeout; drop it
                continue
            if frame.get("ok") is True:
                return frame
            if frame.get("ok") is not False:
                raise self._desynced(f"{op}: response without a "
                                     f"boolean 'ok'")
            self._raise_error(frame)

    def _raise_error(self, frame: Dict[str, Any]) -> None:
        code = frame.get("code", "error")
        message = frame.get("error", "request failed")
        if code == "shed":
            self.counts["sheds_seen"] += 1
            raise WireShed(message,
                           retry_after_ms=frame.get("retry_after_ms", 0.0),
                           draining=frame.get("draining", False))
        if code == "no-session":
            raise _SessionLost(message)
        if code in ("bad-frame", "bad-json", "frame-too-large"):
            raise WireProtocolError(f"[{code}] {message}")
        raise ServeError(f"[{code}] {message}")

    def _request(self, op: str, fields: Dict[str, Any], *,
                 retry_safe: bool) -> Dict[str, Any]:
        """Round trip with session injection and reconnect-on-drop.

        ``retry_safe`` ops are replayed after a reconnect; unsafe ones
        (a submit without an idempotency key) surface the break to the
        caller, who cannot know whether the op landed.
        """
        with self._lock:
            if self._closed:
                raise WireError("client is closed")
            attempts = 0
            while True:
                if self._sock is None:
                    self.counts["reconnects"] += 1
                    self.connect()
                try:
                    if "session" in fields:
                        fields["session"] = self.session_id
                    return self._roundtrip_once(op, fields)
                except _SessionLost:
                    # server forgot us (restart / lease lapse): a new
                    # hello is always safe, then replay if allowed
                    self.counts["rehellos"] += 1
                    self.session_id = None
                    self._hello()
                    if not retry_safe:
                        raise WireError(
                            f"session lost mid-{op}; op is not "
                            f"retry-safe") from None
                except (OSError, ConnectionError, WireTimeout):
                    self._teardown_socket()
                    if not retry_safe or attempts >= 1:
                        raise
                attempts += 1
                self.counts["retried_ops"] += 1

    # -- public ops ----------------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._request("ping", {"session": self.session_id},
                             retry_safe=True)

    def _heartbeat_loop(self) -> None:
        # renew well inside the lease; /3 leaves two chances before
        # the reaper's verdict
        interval = max(self.lease_ms / 3000.0, 0.05)
        while not self._hb_stop.wait(interval):
            try:
                with self._lock:
                    if self._closed or self._sock is None:
                        continue
                    self._roundtrip_once(
                        "ping", {"session": self.session_id})
            except WireError:
                continue  # next caller op will reconnect
            except (OSError, ConnectionError):
                with self._lock:
                    self._teardown_socket()

    def submit(self, spec: JobSpec, *,
               idempotency_key: Optional[str] = None,
               retries: int = 0) -> Dict[str, Any]:
        """Submit a job; returns ``{job_id, state, deduped}``.

        With an ``idempotency_key`` the submit is retry-safe: replays
        after a dropped connection dedupe server-side to one executed
        job.  ``retries`` > 0 additionally honours shed responses by
        sleeping the server's ``retry_after_ms`` hint and resubmitting
        (drain sheds are never retried — the server is going away).
        """
        fields = {"session": self.session_id, "job": spec.to_doc()}
        if idempotency_key is not None:
            fields["idempotency_key"] = idempotency_key
        attempts = 0
        while True:
            try:
                return self._request("submit", dict(fields),
                                     retry_safe=idempotency_key is not None)
            except WireShed as exc:
                if exc.draining or attempts >= retries:
                    raise
                attempts += 1
                self._sleep(max(exc.retry_after_ms, 1.0) / 1000.0)

    def mutate(self, graph: str, batch, *,
               idempotency_key: Optional[str] = None,
               retries: int = 0) -> Dict[str, Any]:
        """Mutate a resident graph; returns the server's summary
        ``{graph, batch_id, from_version, version, changes, deduped}``.

        ``batch`` is a :class:`~repro.graph.mutations.MutationBatch` or
        its ``to_doc()`` mapping.  Mirrors :meth:`submit`'s safety
        contract: with an ``idempotency_key`` the op is retry-safe —
        a replayed batch after a dropped connection applies exactly
        once, the retry learning the original outcome (``deduped``).
        Without a key the batch's content fingerprint still dedupes
        server-side, but a connection break surfaces to the caller.
        ``retries`` > 0 honours shed responses by sleeping the
        server's ``retry_after_ms`` hint (never on drain sheds).
        """
        doc = batch if isinstance(batch, dict) else batch.to_doc()
        fields = {"session": self.session_id, "graph": graph,
                  "batch": doc}
        if idempotency_key is not None:
            fields["idempotency_key"] = idempotency_key
        attempts = 0
        while True:
            try:
                return self._request(
                    "mutate", dict(fields),
                    retry_safe=idempotency_key is not None)
            except WireShed as exc:
                if exc.draining or attempts >= retries:
                    raise
                attempts += 1
                self._sleep(max(exc.retry_after_ms, 1.0) / 1000.0)

    def poll(self, job_id: int, *, values: bool = False) -> Dict[str, Any]:
        """One job's state doc; ``values=True`` adds a done job's
        result as an ndarray under ``"values"``."""
        with self._lock:
            resp = self._request("poll", {"session": self.session_id,
                                          "job_id": job_id,
                                          "values": values},
                                 retry_safe=True)
            doc = resp.get("job")
            if not isinstance(doc, dict) or values and \
                    doc.get("state") == "done" and "values" not in doc:
                # whatever followed the answer cannot be trusted
                raise self._desynced(
                    f"poll of job {job_id}: answer without its "
                    f"{'values' if isinstance(doc, dict) else 'job doc'}")
        return doc

    def result_values(self, job_id: int) -> np.ndarray:
        """A done job's values as the dtype they were computed in."""
        doc = self.poll(job_id, values=True)
        if "values" not in doc:
            raise ServeError(f"job {job_id} is {doc.get('state')!r}, "
                             f"not done")
        return doc["values"]

    def wait(self, job_id: int, *, poll_interval_s: float = 0.02,
             timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state."""
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        while True:
            doc = self.poll(job_id)
            if doc["state"] in ("done", "failed", "cancelled",
                                "quarantined"):
                return doc
            if deadline is not None and time.monotonic() > deadline:
                self.counts["timeouts"] += 1
                raise WireTimeout(
                    f"job {job_id} not terminal within {timeout_s}s "
                    f"(last state {doc['state']!r})")
            self._sleep(poll_interval_s)

    def watch(self, job_id: int, *, timeout_s: Optional[float] = None
              ) -> Iterator[Dict[str, Any]]:
        """Yield pushed state-change events until the job is terminal.

        Falls back to :meth:`wait` semantics on reconnect: if the
        stream breaks, the watch is re-armed on the new connection (the
        registration is retry-safe) and no terminal event is lost —
        the re-watch answers terminally if the job finished meanwhile.
        """
        overall = (None if timeout_s is None
                   else time.monotonic() + timeout_s)
        while True:
            resp = self._request("watch", {"session": self.session_id,
                                           "job_id": job_id},
                                 retry_safe=True)
            if resp.get("terminal"):
                yield {"event": "job", "job_id": job_id,
                       "state": resp["job"]["state"],
                       "slices": resp["job"]["slices"],
                       "terminal": True}
                return
            try:
                for event in self._stream_events(job_id, overall):
                    yield event
                    if event.get("terminal"):
                        return
            except (OSError, ConnectionError, WireTimeout):
                with self._lock:
                    self._teardown_socket()
                if overall is not None and time.monotonic() > overall:
                    raise WireTimeout(
                        f"watch on job {job_id} exceeded {timeout_s}s"
                    ) from None
                # loop: reconnect + re-arm the watch

    def _stream_events(self, job_id: int, overall: Optional[float]
                       ) -> Iterator[Dict[str, Any]]:
        while True:
            event = None
            with self._lock:
                for i, buffered in enumerate(self._events):
                    if buffered.get("job_id") == job_id:
                        del self._events[i]
                        event = buffered
                        break
                if event is None:
                    if self._sock is None:
                        raise ConnectionResetError("connection lost")
                    budget = self.timeout_s
                    if overall is not None:
                        budget = min(budget, overall - time.monotonic())
                        if budget <= 0:
                            raise WireTimeout("watch timed out")
                    frame = self._read_frame(time.monotonic() + budget)
                    if "event" not in frame:
                        continue  # stray response (heartbeat); drop
                    if frame.get("event") == "draining":
                        self.server_draining = True
                        continue
                    if frame.get("event") in ("bye", "expired"):
                        raise ConnectionResetError(
                            f"server said {frame['event']}")
                    if frame.get("job_id") != job_id:
                        self._events.append(frame)
                        continue
                    event = frame
            yield event

    def cancel(self, job_id: int) -> Dict[str, Any]:
        return self._request("cancel", {"session": self.session_id,
                                        "job_id": job_id},
                             retry_safe=True)

    def stats(self) -> Dict[str, Any]:
        """Service metrics + recovery stats + server wire counters."""
        resp = self._request("stats", {"session": self.session_id},
                             retry_safe=True)
        return {"metrics": resp["metrics"], "recovery": resp["recovery"],
                "wire": resp["wire"]}

    def drain(self, mode: str = "finish") -> Dict[str, Any]:
        return self._request("drain", {"session": self.session_id,
                                       "mode": mode},
                             retry_safe=True)

    def client_stats(self) -> Dict[str, Any]:
        """The client's own robustness counters (for trace JSON)."""
        return {**self.counts,
                "last_backoff_schedule": list(self.last_backoff_schedule)}


class _SessionLost(WireError):
    """Internal: server answered ``no-session``; re-hello and retry."""
