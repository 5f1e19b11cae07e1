"""Wire frames at the byte level: damaged frames through both readers.

The client's reader runs against a fake server — the far end of a
``socket.socketpair`` that every (re)connect is handed, pre-loaded with
the bytes under test.  Whatever those bytes are, ``result_values``
gives the intended values or raises ``WireProtocolError`` /
``WireTimeout`` within its time budget with the socket dropped: never a
hang, another exception type, or wrong values.

The server's reader gets raw bytes over TCP: every violation is
answered with an error frame naming it, only an oversized line costs
the connection, and the server keeps serving new connections.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import ClusterSpec, GraphService
from repro.errors import WireProtocolError, WireTimeout
from repro.serve import GraphClient, GraphServiceServer, decode_values
from repro.serve.wire import MAX_FRAME_BYTES, PROTOCOL_VERSION, encode_frame

#: per-op budget where the outcome under test is a timeout, or where a
#: stalled host turning values into a timeout is tallied, not failed;
#: everywhere else the bytes are all there and a long budget never waits
TIMEOUT_S = 0.03

#: ten float64s whose bytes hold a newline (0x0a): the reader must
#: count the payload, never scan it
VALUES = np.frombuffer(bytes((7 * i + 10) % 256 for i in range(80)),
                       dtype="<f8").copy()
OTHER = -VALUES


def values_frame(re, values=VALUES, **job):
    job = dict({"job_id": 1, "state": "done", "values": values}, **job)
    return encode_frame({"re": re, "ok": True, "job": job,
                         "v": PROTOCOL_VERSION})


GOOD = values_frame(1)
HEADER_LEN = GOOD.index(b"\n") + 1
EVENT = encode_frame({"event": "job", "job_id": 9, "state": "running",
                      "slices": 2, "from_cache": False, "terminal": False})


class FakeServer:
    """Every connect gets a fresh socketpair whose far end already holds
    ``data``, then goes silent (or, with ``close``, hangs up)."""

    def __init__(self, data: bytes, close: bool = False) -> None:
        self.data, self.close, self.ends = data, close, []

    def __get__(self, client, owner=None):
        """As a class attribute, a FakeServer is ``client.connect``."""
        return lambda: self.connect(client)

    def connect(self, client) -> None:
        near, far = socket.socketpair()
        self.ends += [near, far]
        far.sendall(self.data)
        if self.close:
            far.shutdown(socket.SHUT_WR)
        client._sock, client._rbuf = near, b""


@pytest.fixture
def fetch(monkeypatch):
    """``fetch(data)`` runs ``result_values(1)`` against a FakeServer
    and returns the array or the exception."""
    servers = []

    def run(data: bytes, close: bool = False, timeout_s: float = 5.0):
        server = FakeServer(data, close)
        servers.append(server)
        monkeypatch.setattr(GraphClient, "connect", server)
        client = GraphClient("fake", 0, heartbeat=False,
                             timeout_s=timeout_s)
        started = time.monotonic()
        try:
            return client.result_values(1)
        except (WireProtocolError, WireTimeout, ConnectionError) as exc:
            # a poll is retried once after a drop: two budgets at most
            assert time.monotonic() - started < 2 * timeout_s + 1.0
            assert client._sock is None and client._rbuf == b"", \
                "failed op left the socket (and part of a frame) behind"
            return exc
        finally:
            client.close()

    yield run
    for server in servers:
        for end in server.ends:
            end.close()


def same(got, want) -> bool:
    return isinstance(got, np.ndarray) and got.dtype == want.dtype \
        and got.shape == want.shape and got.tobytes() == want.tobytes()


def refused(outcome) -> bool:
    return isinstance(outcome, (WireProtocolError, WireTimeout))


def test_intact_frame_and_its_neighbours(fetch):
    assert same(fetch(GOOD), VALUES)
    # a stale answer with its own payload, events on either side
    assert same(fetch(values_frame(0, OTHER) + GOOD), VALUES)
    assert same(fetch(EVENT + values_frame(0, OTHER) + EVENT + GOOD
                      + EVENT), VALUES)
    assert same(fetch(values_frame(0, OTHER) + EVENT + values_frame(1)),
                VALUES)


def test_events_read_around_a_payload_are_parked(monkeypatch):
    server = FakeServer(EVENT + values_frame(0, OTHER) + GOOD + EVENT)
    monkeypatch.setattr(GraphClient, "connect", server)
    with GraphClient("fake", 0, heartbeat=False,
                     timeout_s=5.0) as client:
        assert same(client.result_values(1), VALUES)
        assert [e["job_id"] for e in client._events] == [9]
        # the trailing event is the next frame: nothing was skipped
        assert client._read_frame(time.monotonic() + 5.0) == \
            json.loads(EVENT)
    for end in server.ends:
        end.close()


@pytest.mark.parametrize("cut", sorted(
    set(range(0, HEADER_LEN, 9))
    | {HEADER_LEN - 2, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1}
    | set(range(HEADER_LEN + 3, len(GOOD), 13)) | {len(GOOD) - 1}))
def test_truncated_frame(fetch, cut):
    """In the header, at its newline, inside the payload: a silent
    server times out, a hung-up one is a dropped connection (the
    reconnect path); neither leaves bytes behind."""
    assert isinstance(fetch(GOOD[:cut], timeout_s=TIMEOUT_S), WireTimeout)
    assert isinstance(fetch(GOOD[:cut], close=True), ConnectionError)


def test_every_bit_of_the_header_flipped(fetch):
    """Every single-bit flip of every header byte.  A flip inside the
    ``values_dtype`` value that still names a valid ``dtype.str`` of the
    same size (``<f8`` -> ``>f8``) is decoded as declared — the frame
    carries no checksum, as JSON text did not — so there the oracle is
    the payload read as the damaged header says; everywhere else it is
    the intended values."""
    start = GOOD.index(b'"values_dtype": "') + len(b'"values_dtype": "')
    dtype_span = range(start, GOOD.index(b'"', start))
    payload = GOOD[HEADER_LEN:]
    tally = {"values": 0, "refused": 0, "reinterpreted": 0}
    for at in range(HEADER_LEN):
        for bit in range(8):
            data = bytearray(GOOD)
            data[at] ^= 1 << bit
            outcome = fetch(bytes(data), timeout_s=TIMEOUT_S)
            if refused(outcome):
                tally["refused"] += 1
                continue
            if at in dtype_span and not same(outcome, VALUES):
                header = json.loads(bytes(data[:HEADER_LEN]))
                assert same(outcome, decode_values(header["job"], payload))
                tally["reinterpreted"] += 1
                continue
            assert same(outcome, VALUES), (at, bit, outcome)
            tally["values"] += 1
    assert tally["refused"] > tally["values"] > 0, tally
    assert tally["reinterpreted"] <= 2, tally


def damaged_header(**fields):
    doc = json.loads(GOOD[:HEADER_LEN])
    doc["job"].update(fields)
    return (json.dumps(doc) + "\n").encode()


@pytest.mark.parametrize("fields", [
    {"values_bytes": -80},
    {"values_bytes": True},
    {"values_bytes": 80.0},
    {"values_bytes": 81},
    {"values_bytes": 72},
    {"values_bytes": "80"},
    {"values_bytes": None},
    {"values_bytes": MAX_FRAME_BYTES, "values_shape": [MAX_FRAME_BYTES // 8]},
    {"values_bytes": 2 ** 40, "values_shape": [2 ** 37]},
    {"values_shape": [11]},
    {"values_shape": [5, 2, -1]},
    {"values_dtype": "|O"},
    {"values_dtype": "<M8[s]"},
    {"values_dtype": "<m8[s]"},
    {"values_dtype": "<c8"},
    {"values_dtype": "|V8"},
    {"values_dtype": "float64"},
], ids=repr)
def test_hostile_values_header_refused_before_the_payload(fetch, fields):
    """Refused from the header alone: sent without a payload, the
    answer is an immediate ``WireProtocolError``, not a wait for bytes
    that a checked header would have asked for."""
    outcome = fetch(damaged_header(**fields))
    assert isinstance(outcome, WireProtocolError), outcome
    # and with the payload behind it, nothing of it is read as a frame
    assert isinstance(fetch(damaged_header(**fields) + GOOD[HEADER_LEN:]),
                      WireProtocolError)


@pytest.mark.parametrize("answer", [
    {"re": 1, "ok": True, "v": PROTOCOL_VERSION},
    {"re": 1, "ok": True, "job": [1, 2], "v": PROTOCOL_VERSION},
    {"re": 1, "ok": True, "job": {"job_id": 1, "state": "done"},
     "v": PROTOCOL_VERSION},
    {"re": 1, "ok": 1, "job": {"job_id": 1, "state": "done"},
     "v": PROTOCOL_VERSION},
], ids=["no-job", "job-not-object", "done-without-values", "ok-not-bool"])
def test_values_answer_without_its_values_is_a_protocol_error(fetch, answer):
    """A payload whose declaration was lost would otherwise be read as
    the next frame."""
    outcome = fetch(encode_frame(answer) + GOOD[HEADER_LEN:])
    assert isinstance(outcome, WireProtocolError), outcome


def test_client_cap_counts_frames_not_the_receive_buffer(monkeypatch):
    """A frame just under the cap and the answer behind it, arriving
    together, are two frames within the cap — not one over it."""
    near, far = socket.socketpair()
    monkeypatch.setattr(GraphClient, "connect", lambda self: None)
    client = GraphClient("fake", 0, heartbeat=False, timeout_s=10.0)
    client._sock = near
    pad = MAX_FRAME_BYTES - len(EVENT) - 200
    big = EVENT[:-2] + b" " * pad + b"}\n"
    assert len(big) + len(GOOD) > MAX_FRAME_BYTES > len(big)
    writer = threading.Thread(target=far.sendall, args=(big + GOOD,))
    writer.start()
    try:
        frame = client._roundtrip_once("poll", {"job_id": 1,
                                                "values": True})
        assert same(frame["job"]["values"], VALUES)
        assert client._events[0]["job_id"] == 9
    finally:
        writer.join(timeout=10)
        client.close()
        far.close()


# -- the server's reader -----------------------------------------------------

@pytest.fixture
def server():
    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1))
    server = GraphServiceServer(svc, max_frame_bytes=4096)
    thread = server.serve_in_thread()
    yield server
    server.crash()
    thread.join(timeout=10)


def frames_until_closed(sock, reader):
    """Every frame the server sends until it closes the connection."""
    out = []
    for line in reader:
        out.append(json.loads(line))
    return out


def hello(sock, reader, req=1):
    sock.sendall(encode_frame({"op": "hello", "v": PROTOCOL_VERSION,
                               "req": req, "client": "fuzz"}))
    answer = json.loads(reader.readline())
    assert answer["ok"] is True and answer["re"] == req, answer
    return answer["session"]


@pytest.mark.parametrize("line,code,named", [
    (b'\xff\xfe{"op": "ping"}', "bad-json", "utf-8"),
    (b'{"op": "hello", "client": "\xc3("}', "bad-json", "utf-8"),
    (b"[1, 2, 3]", "bad-frame", "not an object"),
    (b'"hello"', "bad-frame", "not an object"),
    (b"null", "bad-frame", "not an object"),
    (b'{"op": "hello", "v": 3, "req": 1, "client": "c", "lease_ms": NaN}',
     "bad-json", "NaN"),
    (b'{"op": "hello", "v": 3, "req": 1, "client": "c", '
     b'"lease_ms": Infinity}', "bad-json", "Infinity"),
    (b'{"op": "ping", "v": 3, "req": -Infinity, "session": "s1"}',
     "bad-json", "-Infinity"),
    (b'{"op": "hello", "v": 3, "req": 1, "client": "c", "lease_ms": 1e999}',
     "bad-frame", "finite"),
])
def test_server_answers_bad_bytes_and_keeps_the_connection(server, line,
                                                           code, named):
    with socket.create_connection(server.address, timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(line + b"\n")
        answer = json.loads(reader.readline())
        assert answer["ok"] is False and answer["code"] == code, answer
        assert named in answer["error"], answer
        hello(sock, reader, req=2)          # same connection, still served


def test_server_answers_a_truncated_line_then_closes(server):
    with socket.create_connection(server.address, timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "hello", "v": 3, "req": 1, "cli')
        sock.shutdown(socket.SHUT_WR)
        frames = frames_until_closed(sock, reader)
    assert len(frames) == 1 and frames[0]["code"] == "bad-json"
    assert "truncated frame" in frames[0]["error"]
    with socket.create_connection(server.address, timeout=5) as sock:
        hello(sock, sock.makefile("rb"))


@pytest.mark.parametrize("terminated", [True, False])
def test_server_closes_only_for_an_oversized_line(server, terminated):
    with socket.create_connection(server.address, timeout=5) as sock:
        reader = sock.makefile("rb")
        hello(sock, reader)
        sock.sendall(b"{" + b" " * 5000 + (b"}\n" if terminated else b""))
        frames = frames_until_closed(sock, reader)
    assert [f["code"] for f in frames] == ["frame-too-large"]
    assert "4096" in frames[0]["error"]
    with socket.create_connection(server.address, timeout=5) as sock:
        hello(sock, sock.makefile("rb"))


def test_server_cap_counts_frames_not_the_receive_buffer():
    """A ping just under the 4 MiB cap and a 2 KB ping in one write are
    two frames within the cap: both answered, the connection kept."""
    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1))
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            reader = sock.makefile("rb")
            session = hello(sock, reader)

            def ping(req, size):
                head = json.dumps({"op": "ping", "v": PROTOCOL_VERSION,
                                   "req": req, "session": session})[:-1]
                return head.encode() + b" " * (size - len(head) - 2) \
                    + b"}\n"

            big, small = ping(2, 4_194_232), ping(3, 2048)
            assert len(big) == 4_194_232 < MAX_FRAME_BYTES
            assert len(big) + len(small) > MAX_FRAME_BYTES
            sock.sendall(big + small)
            answers = [json.loads(reader.readline()) for _ in range(2)]
            assert [(a["re"], a["ok"]) for a in answers] == \
                [(2, True), (3, True)]
            hello(sock, reader, req=4)      # the connection stayed open
        assert server.counters.bad_frames == 0
    finally:
        server.crash()
        thread.join(timeout=10)
