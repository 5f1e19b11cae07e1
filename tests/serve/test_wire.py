"""The wire protocol server: frames, sessions, sheds, drain."""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, GraphService, JobSpec
from repro.errors import ReproError, WireProtocolError
from repro.graph import rmat
from repro.serve import (JOB_ALGORITHMS, GraphClient, GraphServiceServer,
                         decode_values, encode_values)
from repro.serve.journal import read_journal
from repro.serve.wire import PROTOCOL_VERSION, encode_frame, validate_frame

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)


def make_service(**kw):
    svc = GraphService(SPEC, cache_entries=8, **kw)
    svc.load_graph("g", dataset="wrn")
    return svc


def pagerank_spec(**kw):
    kw.setdefault("graph", "g")
    kw.setdefault("algorithm", "pagerank")
    kw.setdefault("max_iterations", 6)
    return JobSpec(**kw)


@pytest.fixture
def served():
    svc = make_service()
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    yield svc, server
    server.crash()
    thread.join(timeout=10)


def connect(server, **kw):
    host, port = server.address
    kw.setdefault("jitter_seed", 7)
    return GraphClient(host, port, **kw)


@pytest.mark.parametrize("knob,value", [
    ("step_burst", 0),                  # answers frames, never steps
    ("max_frame_bytes", 0),             # every frame is frame-too-large
    ("max_frame_bytes", -1),
    ("crash_after_steps", 0),           # would still run one step
    ("select_interval_s", 0.0),         # the idle loop would spin
    ("select_interval_s", -0.5),
])
def test_server_refuses_knobs_that_break_it(knob, value):
    with pytest.raises(ReproError, match=knob):
        GraphServiceServer(GraphService(SPEC), **{knob: value})


# -- frame validation ---------------------------------------------------------

GOOD = {"op": "ping", "v": PROTOCOL_VERSION, "req": 1, "session": "s1"}


def test_validate_accepts_every_documented_op():
    frames = [
        {"op": "hello", "client": "c"},
        {"op": "ping", "session": "s"},
        {"op": "submit", "session": "s", "job": {"graph": "g"},
         "idempotency_key": "k"},
        {"op": "poll", "session": "s", "job_id": 1, "values": True},
        {"op": "watch", "session": "s", "job_id": 1},
        {"op": "cancel", "session": "s", "job_id": 1},
        {"op": "stats", "session": "s"},
        {"op": "drain", "session": "s", "mode": "now"},
    ]
    for frame in frames:
        frame.update(v=PROTOCOL_VERSION, req=1)
        assert validate_frame(frame) == frame["op"]


@pytest.mark.parametrize("mutate,match", [
    (lambda f: f.pop("op"), "unknown op"),
    (lambda f: f.update(op="frobnicate"), "unknown op"),
    (lambda f: f.update(v=99), "version mismatch"),
    (lambda f: f.pop("v"), "version mismatch"),
    (lambda f: f.pop("req"), "'req' must be an int"),
    (lambda f: f.update(req="one"), "'req' must be an int"),
    (lambda f: f.pop("session"), "missing field 'session'"),
    (lambda f: f.update(session=7), "must be str"),
    (lambda f: f.update(surprise=1), r"unknown fields \['surprise'\]"),
])
def test_validate_rejects_malformed_frames(mutate, match):
    frame = dict(GOOD)
    mutate(frame)
    with pytest.raises(WireProtocolError, match=match):
        validate_frame(frame)


def test_validate_rejects_non_object():
    with pytest.raises(WireProtocolError, match="not an object"):
        validate_frame([1, 2, 3])


# -- raw-socket behaviour: errors answered, never a closed socket -------------

def raw_roundtrip(server, payload: bytes) -> dict:
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(payload)
        buf = b""
        while b"\n" not in buf:
            data = sock.recv(65536)
            assert data, "server closed the socket instead of answering"
            buf += data
    return json.loads(buf.split(b"\n", 1)[0])


def test_unparseable_json_answered_not_closed(served):
    _, server = served
    resp = raw_roundtrip(server, b'{"op": nope}\n')
    assert resp["ok"] is False and resp["code"] == "bad-json"


def test_unknown_op_answered_with_bad_frame(served):
    _, server = served
    frame = {"op": "frobnicate", "v": PROTOCOL_VERSION, "req": 3}
    resp = raw_roundtrip(server, json.dumps(frame).encode() + b"\n")
    assert resp["ok"] is False and resp["code"] == "bad-frame"
    assert resp["re"] == 3
    assert server.wire_stats()["bad_frames"] >= 1


def test_version_mismatch_named_in_error(served):
    _, server = served
    frame = {"op": "ping", "v": 99, "req": 1, "session": "s"}
    resp = raw_roundtrip(server, json.dumps(frame).encode() + b"\n")
    assert resp["code"] == "bad-frame"
    assert "version mismatch" in resp["error"]


def test_unknown_session_gets_no_session_code(served):
    _, server = served
    frame = {"op": "ping", "v": PROTOCOL_VERSION, "req": 1,
             "session": "s999"}
    resp = raw_roundtrip(server, json.dumps(frame).encode() + b"\n")
    assert resp["ok"] is False and resp["code"] == "no-session"


# -- sessions and jobs over the wire ------------------------------------------

def test_hello_submit_poll_values_bit_identical(served):
    svc, server = served
    with connect(server) as client:
        assert client.session_id == "s1"
        resp = client.submit(pagerank_spec(tenant="alice"))
        assert resp["deduped"] is False
        done = client.wait(resp["job_id"], timeout_s=30)
        assert done["state"] == "done"
        values = client.result_values(resp["job_id"])
    # the client's array is the server's buffer, not its digits
    assert values.dtype == np.float64
    assert np.array_equal(values, svc.job(resp["job_id"]).values)


def test_idempotent_resubmit_dedupes(served):
    _, server = served
    with connect(server) as client:
        first = client.submit(pagerank_spec(tenant="a"),
                              idempotency_key="k1")
        again = client.submit(pagerank_spec(tenant="a"),
                              idempotency_key="k1")
    assert again["job_id"] == first["job_id"]
    assert again["deduped"] is True
    assert server.wire_stats()["deduped_submits"] == 1


def test_session_resume_on_reconnect(served):
    _, server = served
    with connect(server) as client:
        sid = client.session_id
        client._teardown_socket()       # drop the TCP connection
        client.ping()                   # transparently reconnects
        assert client.session_id == sid
        assert client.session_resumed is True
    assert server.wire_stats()["sessions_resumed"] == 1


def test_watch_streams_terminal_event(served):
    _, server = served
    with connect(server) as client:
        resp = client.submit(pagerank_spec(tenant="w", use_cache=False))
        events = list(client.watch(resp["job_id"], timeout_s=30))
    assert events[-1]["terminal"] is True
    assert events[-1]["state"] == "done"
    assert all(e["job_id"] == resp["job_id"] for e in events)


def test_watch_on_finished_job_answers_terminally(served):
    _, server = served
    with connect(server) as client:
        resp = client.submit(pagerank_spec(tenant="w"))
        client.wait(resp["job_id"], timeout_s=30)
        events = list(client.watch(resp["job_id"]))
    assert len(events) == 1 and events[0]["terminal"] is True


def test_cancel_over_the_wire():
    svc = make_service()
    server = GraphServiceServer(svc, auto_step=False)  # stays pending
    thread = server.serve_in_thread()
    try:
        with connect(server) as client:
            resp = client.submit(pagerank_spec(tenant="c"))
            out = client.cancel(resp["job_id"])
        assert out["cancelled"] is True and out["state"] == "cancelled"
        assert svc.job(resp["job_id"]).state == "cancelled"
    finally:
        server.crash()
        thread.join(timeout=10)


def test_stats_frame_carries_metrics_recovery_and_wire(served):
    _, server = served
    with connect(server) as client:
        client.submit(pagerank_spec(tenant="s"))
        stats = client.stats()
    assert stats["metrics"]["jobs"]
    assert set(stats["recovery"]) == {"recovered", "requeued",
                                      "resumed", "handoffs"}
    wire = stats["wire"]
    assert wire["protocol_version"] == PROTOCOL_VERSION
    assert wire["sessions_opened"] == 1
    assert wire["frames_in"] >= 2 and wire["connections_live"] == 1


# -- overload sheds -----------------------------------------------------------

def test_overload_answered_with_retry_after_not_a_reset():
    svc = make_service(max_queue_depth=1)
    server = GraphServiceServer(svc, auto_step=False)
    thread = server.serve_in_thread()
    try:
        with connect(server) as client:
            client.submit(pagerank_spec(tenant="a"))  # fills the queue
            from repro.errors import WireShed
            with pytest.raises(WireShed) as exc_info:
                client.submit(pagerank_spec(tenant="b"))
            shed = exc_info.value
            assert shed.retry_after_ms > 0
            assert shed.draining is False
            # the connection survived the refusal
            assert client.ping()["ok"]
        assert server.wire_stats()["sheds_sent"] == 1
    finally:
        server.crash()
        thread.join(timeout=10)


def test_shed_retry_after_resubmits_until_admitted():
    svc = make_service(max_queue_depth=1)
    server = GraphServiceServer(svc, auto_step=False)
    thread = server.serve_in_thread()
    try:
        naps = []

        def nap(seconds):
            naps.append(seconds)
            server.auto_step = True     # backlog drains while we sleep
            time.sleep(0.2)

        with connect(server, sleep=nap) as client:
            client.submit(pagerank_spec(tenant="a", use_cache=False))
            resp = client.submit(
                pagerank_spec(tenant="b", use_cache=False), retries=8)
        assert resp["deduped"] is False
        assert naps, "client never honoured retry_after_ms"
    finally:
        server.crash()
        thread.join(timeout=10)


# -- leases and the half-open reaper ------------------------------------------

def test_half_open_session_reaped_after_lease_lapses():
    svc = make_service()
    server = GraphServiceServer(svc, lease_ms=120.0,
                                select_interval_s=0.01)
    thread = server.serve_in_thread()
    try:
        client = connect(server, heartbeat=False, lease_ms=120.0)
        sid = client.session_id
        deadline = time.monotonic() + 10
        while server.wire_stats()["sessions_reaped"] == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.wire_stats()["sessions_reaped"] == 1
        # the client recovers by transparently re-helloing
        client.ping()
        assert (client.session_id != sid
                or client.client_stats()["rehellos"] >= 1)
        client.close()
    finally:
        server.crash()
        thread.join(timeout=10)


def test_heartbeat_keeps_idle_session_alive():
    svc = make_service()
    server = GraphServiceServer(svc, lease_ms=300.0,
                                select_interval_s=0.01)
    thread = server.serve_in_thread()
    try:
        with connect(server, lease_ms=300.0) as client:
            time.sleep(1.2)             # several lease periods idle
            assert server.wire_stats()["sessions_reaped"] == 0
            client.ping()               # still the same live session
            assert client.client_stats()["rehellos"] == 0
    finally:
        server.crash()
        thread.join(timeout=10)


# -- graceful drain -----------------------------------------------------------

def test_drain_frame_finishes_jobs_and_journals_reason(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = make_service(journal=jpath)
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    with connect(server) as client:
        resp = client.submit(pagerank_spec(tenant="d", use_cache=False))
        out = client.drain()
        assert out["draining"] is True
    thread.join(timeout=30)
    assert svc.job(resp["job_id"]).state == "done"
    marker = read_journal(jpath)[-1]
    assert marker["rec"] == "shutdown" and marker["clean"]
    assert marker["reason"] == "drain frame"


def test_drain_now_suspends_and_recovery_resumes(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = make_service(journal=jpath)
    # pace the scheduler so the drain frame reliably lands mid-job
    orig_step = svc.step

    def slow_step():
        time.sleep(0.02)
        return orig_step()

    svc.step = slow_step
    server = GraphServiceServer(svc, step_burst=1)
    thread = server.serve_in_thread()
    with connect(server) as client:
        resp = client.submit(pagerank_spec(tenant="d", use_cache=False,
                                           max_iterations=10))
        # let it make some checkpointed progress, then suspend
        deadline = time.monotonic() + 10
        while server.steps_taken < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        client.drain(mode="now")
    thread.join(timeout=30)

    marker = read_journal(jpath)[-1]
    assert marker["rec"] == "shutdown" and marker["clean"]
    rec = GraphService.recover(jpath)    # clean *and* mid-flight:
    assert rec.metrics()["recovered_jobs"] == 1  # suspended, not lost
    rec.run()
    job = rec.job(resp["job_id"])
    assert job.state == "done"
    # the resume actually helped: strictly fewer recomputed supersteps
    assert len(job.result.stats) < 10


def test_draining_submits_shed_with_draining_flag():
    from repro.errors import WireShed
    svc = make_service()
    server = GraphServiceServer(svc, auto_step=False)
    thread = server.serve_in_thread()
    try:
        with connect(server) as client:
            # mark the *service* draining without tearing the loop
            # down, so the shed answer itself is deterministic
            svc.draining = True
            with pytest.raises(WireShed) as exc_info:
                client.submit(pagerank_spec(tenant="late"))
            assert exc_info.value.draining is True
            assert exc_info.value.retry_after_ms > 0
    finally:
        server.crash()
        thread.join(timeout=10)


# -- streaming mutations over the wire ----------------------------------------


def test_mutate_frame_validates():
    frame = {"op": "mutate", "session": "s", "graph": "g",
             "batch": {"add": {"src": [0], "dst": [1]}},
             "idempotency_key": "k", "v": PROTOCOL_VERSION, "req": 1}
    assert validate_frame(frame) == "mutate"
    bad = dict(frame)
    del bad["batch"]
    with pytest.raises(WireProtocolError, match="missing field 'batch'"):
        validate_frame(bad)


def test_mutate_applies_and_new_submits_see_it(served):
    svc, server = served
    edges_before = svc.store.get("g").graph.num_edges
    with connect(server) as client:
        resp = client.mutate(
            "g", {"add": {"src": [0], "dst": [5]}},
            idempotency_key="wire-mut-1")
        assert resp["version"] == 2 and not resp["deduped"]
        assert resp["changes"] == 1
        job = client.submit(pagerank_spec(tenant="after"))
        doc = client.wait(job["job_id"])
        assert doc["state"] == "done"
    assert svc.store.get("g").version == 2
    assert svc.store.get("g").graph.num_edges == edges_before + 1
    assert svc.job(job["job_id"]).snapshot_version == 2


def test_mutate_replay_applies_exactly_once(served):
    svc, server = served
    batch = {"add": {"src": [1], "dst": [6]}}
    with connect(server) as client:
        first = client.mutate("g", batch, idempotency_key="dup-key")
        again = client.mutate("g", batch, idempotency_key="dup-key")
    assert not first["deduped"] and again["deduped"]
    assert again["version"] == first["version"] == 2
    assert svc.store.get("g").version == 2
    assert svc.metrics()["mutations"] == 1
    assert svc.metrics()["deduped_mutations"] == 1
    # a replayed mutation is no replayed submit
    assert server.wire_stats()["deduped_submits"] == 0


def test_mutate_bad_batch_answered_not_closed(served):
    from repro.errors import ServeError
    _, server = served
    with connect(server) as client:
        with pytest.raises(ServeError, match=r"\[bad-batch\]"):
            client.mutate("g", {"frobnicate": {}})
        with pytest.raises(ServeError, match=r"\[bad-batch\].*unknown "
                                             "graph"):
            client.mutate("nope", {"add": {"src": [0], "dst": [1]}})
        # the session survived both refusals
        assert client.ping()


def test_submit_with_a_misspelled_job_key_is_a_bad_job(served):
    """The wire reads a job as the journal does: a key ``JobSpec``
    never had is refused, not dropped."""
    from repro.errors import ServeError
    svc, server = served
    with connect(server) as client:
        doc = JobSpec(graph="g", algorithm="cc").to_doc()
        doc["max_iteration"] = doc.pop("max_iterations")
        with pytest.raises(ServeError, match=r"\[bad-job\].*"
                                             "'max_iteration'"):
            client._request("submit", {"session": client.session_id,
                                       "job": doc}, retry_safe=False)
        assert client.ping()
    assert svc.jobs() == []


def test_mutate_refuses_non_integer_ids(served):
    """A fractional id is refused, not truncated onto vertex 0."""
    from repro.errors import ServeError
    svc, server = served
    with connect(server) as client:
        with pytest.raises(ServeError, match=r"\[bad-batch\].*integers"):
            client.mutate("g", {"add": {"src": [0.7], "dst": [5]}})
    assert svc.store.get("g").version == 1


def test_mutate_shed_while_draining():
    from repro.errors import WireShed
    svc = make_service()
    server = GraphServiceServer(svc, auto_step=False)
    thread = server.serve_in_thread()
    try:
        with connect(server) as client:
            svc.draining = True
            with pytest.raises(WireShed) as exc_info:
                client.mutate("g", {"add": {"src": [0], "dst": [1]}})
            assert exc_info.value.draining is True
    finally:
        server.crash()
        thread.join(timeout=10)


# -- values cross the wire as raw bytes (protocol v3) -------------------------

def split_frame(frame: bytes):
    """A values frame as (header doc, payload): the header is the first
    line, and json.dumps never writes a raw newline."""
    header, payload = frame.split(b"\n", 1)
    return json.loads(header), payload


def via_frame(values: np.ndarray) -> np.ndarray:
    doc, payload = split_frame(encode_frame({"job": {"values": values}}))
    return decode_values(doc["job"], payload)


VALUE_DTYPES = ["<f8", ">f8", "<f4", ">f4", "<i8", ">i8", "<i4", ">i4", "|b1",
                "|i1", "<u8", ">u8", ">u2", "|u1"]


@st.composite
def value_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(VALUE_DTYPES)))
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 40)),
        st.tuples(st.integers(0, 12), st.integers(1, 4))))
    # arbitrary bit patterns: nan payloads, -0.0, +-inf, denormals
    raw = draw(st.binary(min_size=dtype.itemsize * int(np.prod(shape)),
                         max_size=dtype.itemsize * int(np.prod(shape))))
    if dtype.kind == "b":
        raw = bytes(b & 1 for b in raw)
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if draw(st.booleans()):
        # non-contiguous view of the same elements
        wide = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=dtype)
        wide[..., ::2] = array
        array = wide[..., ::2]
        assert not array.flags.c_contiguous or array.size <= 1
    return array


@given(value_arrays())
@settings(max_examples=150, deadline=None)
def test_values_round_trip_bit_for_bit(array):
    got = via_frame(array)
    native = array.dtype.newbyteorder("=")
    assert got.dtype == native and got.dtype.isnative
    assert got.shape == array.shape
    assert got.tobytes() == array.astype(native).tobytes()
    assert got.flags.writeable and got.flags.owndata


#: header text that must not change the layout: the values fields' own
#: names, a quoted key, escapes, newlines and non-ASCII
NASTY_TEXT = st.one_of(st.text(), st.sampled_from([
    "values_bytes", '"values_bytes": 8', "\n", "\r\n", "\\", '"', "\0",
    "caf\u00e9 \u2603 \U0001d11e"]))


@given(value_arrays(),
       st.dictionaries(st.sampled_from(["tenant", "graph", "error"]),
                       NASTY_TEXT),
       NASTY_TEXT, st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_values_frame_is_a_json_line_then_its_bytes(array, fields, note, at):
    """A values frame is ``json.dumps`` of the doc with the array
    declared in its place, one newline, then exactly the array's
    little-endian C-order bytes — wherever ``values`` sits in the job
    doc and whatever the other strings hold."""
    items = list(dict(job_id=7, state="done", **fields).items())
    items[at:at] = [("values", array)]
    doc = {"re": 3, "ok": True, "job": dict(items), "note": note,
           "v": PROTOCOL_VERSION}
    frame = encode_frame(doc)
    little = array.astype(array.dtype.newbyteorder("<"))
    header = dict(doc, job={
        **{k: v for k, v in items if k != "values"},
        "values_bytes": little.nbytes, "values_dtype": little.dtype.str,
        "values_shape": list(array.shape)})
    want = (json.dumps(header) + "\n").encode("utf-8")
    assert frame == want + little.tobytes()
    fields, payload = encode_values(array)
    assert header["job"] == {**header["job"], **fields}
    assert bytes(payload) == little.tobytes()
    got, payload = split_frame(frame)
    assert got == header and len(payload) == got["job"]["values_bytes"]
    values = decode_values(got["job"], payload)
    assert values.shape == array.shape
    assert values.tobytes() == array.astype(
        array.dtype.newbyteorder("=")).tobytes()


def test_values_special_floats_keep_their_bits():
    quiet = np.frombuffer(np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(),
                          dtype=np.float64)[0]
    array = np.array([quiet, -0.0, 0.0, np.inf, -np.inf, 5e-324])
    got = via_frame(array)
    assert got.tobytes() == array.tobytes()
    assert np.signbit(got[1]) and not np.signbit(got[2])
    got[0] = 1.0                            # writable, owns its memory
    assert via_frame(np.empty((0, 3), dtype=np.float32)).shape == (0, 3)


GOOD_VALUES = {"values_bytes": 8, "values_dtype": "<f8",
               "values_shape": [1]}
GOOD_PAYLOAD = np.float64(1.0).astype("<f8").tobytes()


def test_good_values_doc_decodes():
    assert decode_values(GOOD_VALUES, GOOD_PAYLOAD).tolist() == [1.0]


@pytest.mark.parametrize("patch", [
    {"values_bytes": 16},                    # != prod(shape) * itemsize
    {"values_bytes": -8},
    {"values_bytes": 8.0},
    {"values_bytes": True},
    {"values_bytes": None},
    {"values_shape": [2]},                   # length != prod(shape) * 8
    {"values_shape": [1, 0]},
    {"values_shape": [-1]},
    {"values_shape": [1.0]},
    {"values_shape": [True]},
    {"values_shape": 1},
    {"values_dtype": "<f4"},                 # would reshape silently to 2
    {"values_dtype": "float65"},
    {"values_dtype": "float64"},             # a name, not a dtype.str
    {"values_dtype": "|O"},
    {"values_dtype": "|S8"},
    {"values_dtype": "<M8[s]"},
    {"values_dtype": [["a", "<f8"]]},
    {"values_dtype": None},
], ids=repr)
def test_malformed_values_doc_raises_wire_protocol_error(patch):
    with pytest.raises(WireProtocolError, match="malformed values"):
        decode_values(dict(GOOD_VALUES, **patch), GOOD_PAYLOAD)


@pytest.mark.parametrize("payload", [b"", GOOD_PAYLOAD[:7],
                                     GOOD_PAYLOAD + b"\0"], ids=len)
def test_payload_of_another_length_raises_wire_protocol_error(payload):
    with pytest.raises(WireProtocolError, match="payload, header says 8"):
        decode_values(GOOD_VALUES, payload)


@pytest.mark.parametrize("missing", sorted(GOOD_VALUES))
def test_values_doc_missing_a_field_names_it(missing):
    doc = dict(GOOD_VALUES)
    del doc[missing]
    with pytest.raises(WireProtocolError, match=missing):
        decode_values(doc, GOOD_PAYLOAD)


def every_algorithm_spec(algorithm, engine):
    params = {"kcore": {"k": 2}, "sssp-bf": {"sources": [0, 5]}}
    return JobSpec(graph="g", algorithm=algorithm, engine=engine,
                   params=params.get(algorithm, {}), max_iterations=6,
                   tenant="t")


def assert_same_array(got: np.ndarray, want: np.ndarray, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def test_every_algorithm_arrives_bit_identical(tmp_path):
    """Computed, cache hit, and after crash + recover(): the client's
    array is the service's array, byte for byte."""
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, cache_entries=32, journal=jpath)
    graph = rmat(512, 4096, seed=3)
    svc.load_graph("g", graph)
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    cells = [(a, e) for a in sorted(JOB_ALGORITHMS)
             for e in ("powergraph", "graphx")]
    computed = {}
    with connect(server) as client:
        for cell in cells:
            spec = every_algorithm_spec(*cell)
            first = client.submit(spec)["job_id"]
            assert client.wait(first, timeout_s=60)["state"] == "done"
            assert_same_array(client.result_values(first),
                              svc.job(first).values, cell)
            hit = client.submit(spec)["job_id"]
            doc = client.wait(hit, timeout_s=60)
            assert doc["state"] == "done" and doc["from_cache"], cell
            assert_same_array(client.result_values(hit),
                              svc.job(first).values, cell)
            computed[cell] = (first, svc.job(first).values)
        assert computed[("sssp-bf", "graphx")][1].shape[1] == 2
        server.crash()
        thread.join(timeout=10)
        svc2 = GraphService.recover(jpath, graphs={"g": graph})
        server2 = GraphServiceServer(svc2, *server.address)
        thread2 = server2.serve_in_thread()
        try:
            for cell, (job_id, values) in computed.items():
                assert_same_array(client.result_values(job_id), values,
                                  cell)
                assert_same_array(svc2.job(job_id).values, values, cell)
        finally:
            server2.crash()
            thread2.join(timeout=10)


def test_v1_frame_refused_by_name_and_connection_stays_usable(served):
    _, server = served
    assert PROTOCOL_VERSION == 3
    with socket.create_connection(server.address, timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "hello", "v": 1, "req": 1, "client": "old"}\n')
        refused = json.loads(reader.readline())
        assert refused["ok"] is False and refused["code"] == "bad-frame"
        assert refused["re"] == 1 and refused["v"] == 3
        assert "frame says 1" in refused["error"]
        assert "server speaks 3" in refused["error"]
        sock.sendall(b'{"op": "hello", "v": 3, "req": 2, "client": "new"}\n')
        hello = json.loads(reader.readline())
        assert hello["ok"] is True and hello["re"] == 2


def test_v2_frame_refused_by_name_and_connection_stays_usable(served):
    """v2 clients expect base64 inside the line: refused, not fed a
    payload they would read as the next frame."""
    _, server = served
    with socket.create_connection(server.address, timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "hello", "v": 2, "req": 1, "client": "v2"}\n')
        refused = json.loads(reader.readline())
        assert refused["ok"] is False and refused["code"] == "bad-frame"
        assert refused["re"] == 1 and refused["v"] == 3
        assert "frame says 2" in refused["error"]
        assert "server speaks 3" in refused["error"]
        sock.sendall(b'{"op": "hello", "v": 3, "req": 2, "client": "v3"}\n')
        hello = json.loads(reader.readline())
        assert hello["ok"] is True and hello["re"] == 2


def test_every_frame_is_strict_json(served):
    """SSSP distances to unreachable vertices are ``inf``: as digits
    that is the bare token ``Infinity``, which is not JSON.  Every
    header line is strict JSON, and a values payload is exactly the
    bytes its header declares."""
    svc, server = served

    def refuse(token):
        raise AssertionError(f"non-JSON constant {token!r} on the wire")

    frames = []
    payloads = {}
    with socket.create_connection(server.address, timeout=10) as sock:
        reader = sock.makefile("rb")

        def ask(*requests):
            """Pipeline the requests; return the last one's answer."""
            sock.sendall(b"".join(
                encode_frame(dict(fields, v=PROTOCOL_VERSION, req=rid))
                for rid, fields in enumerate(requests)))
            while True:
                frame = json.loads(reader.readline(),
                                   parse_constant=refuse)
                frames.append(frame)
                job = frame.get("job", {})
                if "values_bytes" in job:
                    payloads[id(frame)] = reader.read(job["values_bytes"])
                if frame.get("re") == len(requests) - 1:
                    assert frame["ok"], frame
                    return frame
                assert "values_bytes" not in job, "stray values frame"

        session = ask({"op": "hello", "client": "strict"})["session"]
        spec = JobSpec(graph="g", algorithm="sssp-bf", tenant="t",
                       params={"sources": [0]}, max_iterations=6)
        # one write: the watch is armed before the job's first slice
        watch = ask({"op": "submit", "session": session,
                     "job": spec.to_doc()},
                    {"op": "watch", "session": session, "job_id": 1})
        assert watch["terminal"] is False
        poll = {"op": "poll", "session": session, "job_id": 1}
        while ask(poll)["job"]["state"] != "done":
            time.sleep(0.01)
        answer = ask(dict(poll, values=True))
        ask({"op": "stats", "session": session})
    payload = payloads[id(answer)]
    assert len(payload) == answer["job"]["values_bytes"]
    values = decode_values(answer["job"], payload)
    assert np.isinf(values).any(), "test graph lost its unreachable part"
    assert np.array_equal(values, svc.job(1).values)
    assert list(payloads) == [id(answer)], "only the values poll has bytes"
    assert any(f.get("event") == "job" and f["terminal"] for f in frames)


# -- buffered sends and streamed watches -------------------------------------

def read_frame(reader):
    """One frame off a raw socket: the header doc, and the payload a
    values frame declares (``b""`` otherwise)."""
    frame = json.loads(reader.readline())
    size = frame.get("job", {}).get("values_bytes", 0)
    return frame, reader.read(size)


def raw_request(op, req, **fields):
    return encode_frame(dict(fields, op=op, v=PROTOCOL_VERSION, req=req))


def wait_for(predicate, what, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {what}"
        time.sleep(0.005)


def test_queued_values_frames_arrive_whole_and_in_order():
    """A reader that holds off: the server's shrunken send buffer
    fills, the rest of several values frames waits in its write buffer
    while job events join the queue, and everything arrives byte for
    byte, in order, once the reader reads."""
    svc = make_service()
    server = GraphServiceServer(svc, step_burst=1)
    thread = server.serve_in_thread()
    try:
        with connect(server) as client:
            done = client.submit(pagerank_spec(tenant="a"))["job_id"]
            assert client.wait(done, timeout_s=30)["state"] == "done"
            server.auto_step = False
            pending = client.submit(pagerank_spec(
                tenant="b", use_cache=False))["job_id"]
        want = svc.job(done).values.astype("<f8").tobytes()
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect(server.address)
            reader = sock.makefile("rb")
            sock.sendall(raw_request("hello", 1, client="slow"))
            session = read_frame(reader)[0]["session"]
            conn = next(c for c in list(server._conns.values())
                        if c.session is not None
                        and c.session.session_id == session)
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            poll = dict(session=session, job_id=done, values=True)
            sock.sendall(raw_request("watch", 2, session=session,
                                     job_id=pending)
                         + b"".join(raw_request("poll", req, **poll)
                                    for req in (3, 4, 5)))
            wait_for(lambda: len(conn.wbuf) > len(want),
                     "values frames queued behind a full send buffer")
            server.auto_step = True         # job events join the queue
            wait_for(lambda: svc.job(pending).finished, "the pending job")
            sock.sendall(b"".join(raw_request("poll", req, **poll)
                                  for req in (6, 7)))
            frames = []
            while len([f for f, _ in frames if "re" in f]) < 6:
                frames.append(read_frame(reader))
            if not any(f.get("terminal") for f, _ in frames):
                frames.append(read_frame(reader))
        assert [f["re"] for f, _ in frames if "re" in f] == \
            [2, 3, 4, 5, 6, 7]
        values = [(f, payload) for f, payload in frames
                  if f.get("re", 0) >= 3]
        headers = {json.dumps(dict(f, re=None)) for f, _ in values}
        assert len(headers) == 1, "one answer, five times"
        assert all(payload == want for _, payload in values)
        kinds = ["values" if f.get("re", 0) >= 3 else
                 "event" if "event" in f else "watch" for f, _ in frames]
        first, last = kinds.index("event"), len(kinds) - 1 - \
            kinds[::-1].index("event")
        assert kinds[:first] == ["watch", "values", "values", "values"]
        assert set(kinds[first:last + 1]) == {"event"}
        assert kinds[last + 1:] == ["values", "values"]
        assert frames[last][0]["terminal"] is True
    finally:
        server.crash()
        thread.join(timeout=10)


def test_send_to_a_reset_peer_closes_only_that_connection():
    svc = make_service()
    entered, release = threading.Event(), threading.Event()
    orig_step = svc.step

    def held_step():
        entered.set()
        release.wait(10)
        return orig_step()

    svc.step = held_step
    server = GraphServiceServer(svc, auto_step=False, step_burst=1)
    thread = server.serve_in_thread()
    try:
        with connect(server, heartbeat=False) as client:
            job_id = client.submit(pagerank_spec(
                tenant="r", use_cache=False))["job_id"]
        sock = socket.create_connection(server.address, timeout=10)
        reader = sock.makefile("rb")
        sock.sendall(raw_request("hello", 1, client="gone"))
        session = read_frame(reader)[0]["session"]
        sock.sendall(raw_request("watch", 2, session=session,
                                 job_id=job_id))
        assert read_frame(reader)[0]["terminal"] is False
        closed = server.wire_stats()["connections_closed"]
        server.auto_step = True
        assert entered.wait(10)
        # reset (not close) the watcher while the loop is mid-step: the
        # slice's job event is then sent into a dead socket
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        reader.close()
        sock.close()
        time.sleep(0.05)
        release.set()
        wait_for(lambda: server.wire_stats()["connections_closed"] > closed,
                 "the reset connection closed")
        with connect(server) as client:
            assert client.wait(job_id, timeout_s=30)["state"] == "done"
    finally:
        release.set()
        server.crash()
        thread.join(timeout=10)


def test_watch_streams_progress_then_one_terminal_event():
    """A watch armed on a pending job streams its slices as they run,
    re-arms across a dropped connection, and ends with exactly one
    terminal event."""
    svc = make_service()
    server = GraphServiceServer(svc, auto_step=False, step_burst=1)
    thread = server.serve_in_thread()

    def step_once_watched():
        wait_for(lambda: any(c.watches
                             for c in list(server._conns.values())),
                 "the watch registration")
        server.auto_step = True

    try:
        with connect(server) as client:
            job_id = client.submit(pagerank_spec(
                tenant="w", use_cache=False, max_iterations=10))["job_id"]
            starter = threading.Thread(target=step_once_watched,
                                       daemon=True)
            starter.start()
            events = []
            for event in client.watch(job_id, timeout_s=60):
                events.append(event)
                if len(events) == 2:
                    with client._lock:      # the stream breaks mid-job
                        client._teardown_socket()
            starter.join(timeout=10)
            assert client.client_stats()["reconnects"] == 1
    finally:
        server.crash()
        thread.join(timeout=10)
    progress = [e["slices"] for e in events if not e["terminal"]]
    assert len(progress) >= 3, events
    assert progress == sorted(set(progress)), "slices must rise"
    assert [e["terminal"] for e in events].count(True) == 1
    assert events[-1]["terminal"] and events[-1]["state"] == "done"
    assert all(e["job_id"] == job_id for e in events)
