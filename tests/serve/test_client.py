"""GraphClient robustness: timeouts, backoff, reconnects, retry safety."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import ClusterSpec, GraphService, JobSpec
from repro.errors import (ServeError, WireError, WireProtocolError,
                          WireTimeout, WireUnavailable)
from repro.serve import GraphClient, GraphServiceServer

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


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


# -- dead server: timeout + backoff schedule, never a hang --------------------

def test_dead_server_yields_backoff_schedule_not_a_hang():
    naps = []
    started = time.monotonic()
    with pytest.raises(WireUnavailable) as exc_info:
        GraphClient("127.0.0.1", free_port(), connect_attempts=4,
                    backoff_base_s=0.01, jitter_seed=3,
                    sleep=naps.append)
    assert time.monotonic() - started < 5.0, "client hung"
    schedule = exc_info.value.backoff_schedule
    # one delay between each of the 4 attempts
    assert len(schedule) == 3
    assert tuple(naps) == schedule
    # exponential shape survives the jitter: full-jitter scales each
    # base delay by [0.5, 1.5), so 4x base growth always dominates
    assert schedule[2] > schedule[0]
    assert all(d > 0 for d in schedule)


def test_backoff_jitter_is_seeded_and_deterministic():
    def schedule_for(seed):
        with pytest.raises(WireUnavailable) as exc_info:
            GraphClient("127.0.0.1", free_port(), connect_attempts=3,
                        backoff_base_s=0.01, jitter_seed=seed,
                        sleep=lambda _s: None)
        return exc_info.value.backoff_schedule

    assert schedule_for(1) == schedule_for(1)
    assert schedule_for(1) != schedule_for(2)


def test_silent_server_times_out_per_request():
    """A server that accepts but never answers must cost the timeout
    budget per attempt, not an unbounded hang."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    try:
        started = time.monotonic()
        with pytest.raises(WireUnavailable) as exc_info:
            GraphClient("127.0.0.1", listener.getsockname()[1],
                        timeout_s=0.2, connect_attempts=2,
                        backoff_base_s=0.01, jitter_seed=0,
                        sleep=lambda _s: None)
        assert time.monotonic() - started < 5.0
        assert "no response within" in str(exc_info.value)
    finally:
        listener.close()


def test_constructor_validates_budgets():
    with pytest.raises(ServeError, match="timeout_s must be positive"):
        GraphClient("127.0.0.1", 1, timeout_s=0)
    with pytest.raises(ServeError, match="connect_attempts"):
        GraphClient("127.0.0.1", 1, connect_attempts=0)


# -- reconnect across a server restart ----------------------------------------

def test_client_survives_server_restart_and_dedupes(tmp_path):
    jpath = str(tmp_path / "svc.jsonl")
    svc = make_service(journal=jpath)
    server = GraphServiceServer(svc, auto_step=False)
    thread = server.serve_in_thread()
    host, port = server.address

    client = GraphClient(host, port, jitter_seed=9, connect_attempts=6,
                         backoff_base_s=0.01)
    try:
        first = client.submit(pagerank_spec(tenant="a"),
                              idempotency_key="restart-key")

        server.crash()                   # abrupt: nothing drained
        thread.join(timeout=10)

        svc2 = GraphService.recover(jpath)
        server2 = GraphServiceServer(svc2, host, port)
        thread2 = server2.serve_in_thread()
        try:
            again = client.submit(pagerank_spec(tenant="a"),
                                  idempotency_key="restart-key")
            assert again["job_id"] == first["job_id"]
            assert again["deduped"] is True
            assert client.client_stats()["reconnects"] >= 1
            done = client.wait(first["job_id"], timeout_s=30)
            assert done["state"] == "done"
            values = client.result_values(first["job_id"])
            assert np.array_equal(values,
                                  svc2.job(first["job_id"]).values)
        finally:
            server2.crash()
            thread2.join(timeout=10)
    finally:
        client.close()


def test_unsafe_submit_is_not_replayed_after_drop():
    """A submit WITHOUT an idempotency key must surface a dropped
    connection instead of blindly resubmitting (caller can't know
    whether the first attempt landed)."""
    svc = make_service()
    server = GraphServiceServer(svc, auto_step=False)
    thread = server.serve_in_thread()
    client = GraphClient(*server.address, jitter_seed=4,
                         connect_attempts=3, backoff_base_s=0.01,
                         heartbeat=False)
    try:
        server.crash()
        thread.join(timeout=10)
        with pytest.raises((WireError, OSError)):
            client.submit(pagerank_spec(tenant="x"))
        assert client.client_stats()["retried_ops"] == 0
    finally:
        client.close()


def test_closed_client_refuses_requests():
    svc = make_service()
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    try:
        client = GraphClient(*server.address, jitter_seed=2)
        client.close()
        with pytest.raises(WireError, match="closed"):
            client.ping()
    finally:
        server.crash()
        thread.join(timeout=10)


def test_client_stats_counters():
    svc = make_service()
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    try:
        with GraphClient(*server.address, jitter_seed=8) as client:
            client.ping()
            stats = client.client_stats()
        assert set(stats) == {"reconnects", "retried_ops", "rehellos",
                              "sheds_seen", "timeouts",
                              "last_backoff_schedule"}
        assert stats["reconnects"] == 0
        assert stats["last_backoff_schedule"] == []
    finally:
        server.crash()
        thread.join(timeout=10)


def test_wait_times_out_on_stuck_job():
    svc = make_service()
    server = GraphServiceServer(svc, auto_step=False)  # never runs
    thread = server.serve_in_thread()
    try:
        with GraphClient(*server.address, jitter_seed=5) as client:
            resp = client.submit(pagerank_spec(tenant="stuck"))
            with pytest.raises(WireTimeout, match="not terminal"):
                client.wait(resp["job_id"], timeout_s=0.3,
                            poll_interval_s=0.05)
    finally:
        server.crash()
        thread.join(timeout=10)


# -- one oversized frame must not cost the connection -------------------------

def test_oversized_answer_is_refused_by_name_and_client_survives():
    svc = make_service()
    server = GraphServiceServer(svc, max_frame_bytes=20_000)
    thread = server.serve_in_thread()
    try:
        with GraphClient(*server.address, jitter_seed=4) as client:
            job_id = client.submit(pagerank_spec(tenant="big"))["job_id"]
            assert client.wait(job_id, timeout_s=30)["state"] == "done"
            with pytest.raises(ServeError, match=r"\[too-large\]") as info:
                client.result_values(job_id)
            assert "20000" in str(info.value)
            # refused by name, nothing torn down: same socket, same session
            assert client.ping()["session"] == client.session_id
            assert client.client_stats()["reconnects"] == 0
            assert client.poll(job_id)["state"] == "done"
    finally:
        server.crash()
        thread.join(timeout=10)


def test_client_drops_the_socket_after_an_oversized_frame(monkeypatch):
    svc = make_service()
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    try:
        with GraphClient(*server.address, jitter_seed=4,
                         heartbeat=False) as client:
            job_id = client.submit(pagerank_spec(tenant="big"))["job_id"]
            assert client.wait(job_id, timeout_s=30)["state"] == "done"
            session = client.session_id
            monkeypatch.setattr("repro.serve.client.MAX_FRAME_BYTES", 20_000)
            with pytest.raises(WireProtocolError, match="oversized"):
                client.result_values(job_id)
            assert client._rbuf == b""
            # the next op reconnects and resumes the session
            assert client.ping()["session"] == session
            assert client.client_stats()["reconnects"] == 1
            monkeypatch.undo()
            values = client.result_values(job_id)
        assert np.array_equal(values, svc.job(job_id).values)
    finally:
        server.crash()
        thread.join(timeout=10)


def test_client_drops_the_socket_after_an_unparseable_frame():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    done = threading.Event()

    def answer(conn, reader, **fields):
        req = json.loads(reader.readline())
        conn.sendall(json.dumps(
            dict(fields, re=req["req"], ok=True)).encode() + b"\n")

    def serve_two_connections():
        first, _ = listener.accept()
        reader = first.makefile("rb")
        answer(first, reader, session="s1")
        reader.readline()                      # the ping ...
        first.sendall(b"{not json\n")          # ... answered with garbage
        second, _ = listener.accept()          # first stays open, silent
        reader = second.makefile("rb")
        answer(second, reader, session="s1", resumed=True)
        answer(second, reader, session="s1")
        done.wait(5)
        first.close()
        second.close()

    thread = threading.Thread(target=serve_two_connections, daemon=True)
    thread.start()
    try:
        with GraphClient(*listener.getsockname(), heartbeat=False,
                         timeout_s=2.0) as client:
            with pytest.raises(WireProtocolError, match="unparseable"):
                client.ping()
            # not one more byte is read from the garbled stream
            assert client.ping()["session"] == "s1"
            counts = client.client_stats()
            assert counts["reconnects"] == 1 and counts["timeouts"] == 0
    finally:
        done.set()
        thread.join(timeout=5)
        listener.close()
