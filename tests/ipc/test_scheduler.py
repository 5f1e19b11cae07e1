"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import ChannelClosedError, DeadlockError, SimulationError
from repro.ipc import (
    Channel,
    Join,
    Now,
    Recv,
    Scheduler,
    Send,
    Sleep,
    Spawn,
    run_process,
)


def test_single_process_sleep_advances_clock():
    def proc():
        yield Sleep(10.0)
        yield Sleep(2.5)
        return "ok"

    result, elapsed = run_process(proc())
    assert result == "ok"
    assert elapsed == pytest.approx(12.5)


def test_now_reports_simulated_time():
    def proc():
        t0 = yield Now()
        yield Sleep(7.0)
        t1 = yield Now()
        return (t0, t1)

    (t0, t1), _ = run_process(proc())
    assert t0 == 0.0
    assert t1 == pytest.approx(7.0)


def test_zero_sleep_does_not_advance():
    def proc():
        yield Sleep(0.0)
        return (yield Now())

    t, _ = run_process(proc())
    assert t == 0.0


def test_negative_sleep_rejected():
    with pytest.raises(SimulationError):
        Sleep(-1.0)


def test_send_recv_roundtrip():
    ch = Channel("c")
    log = []

    def producer():
        yield Sleep(3.0)
        yield Send(ch, "hello")

    def consumer():
        msg = yield Recv(ch)
        log.append((msg, (yield Now())))

    sched = Scheduler()
    sched.spawn(producer(), "p")
    sched.spawn(consumer(), "q")
    sched.run()
    assert log == [("hello", 3.0)]


def test_channel_latency_delays_delivery():
    ch = Channel("c", latency=5.0)

    def producer():
        yield Send(ch, "x")

    def consumer():
        yield Recv(ch)
        return (yield Now())

    sched = Scheduler()
    sched.spawn(producer(), "p")
    h = sched.spawn(consumer(), "q")
    sched.run()
    assert h.result == pytest.approx(5.0)


def test_fifo_order_preserved():
    ch = Channel("c")
    got = []

    def producer():
        for i in range(5):
            yield Send(ch, i)

    def consumer():
        for _ in range(5):
            got.append((yield Recv(ch)))

    sched = Scheduler()
    sched.spawn(producer(), "p")
    sched.spawn(consumer(), "q")
    sched.run()
    assert got == [0, 1, 2, 3, 4]


def test_spawn_and_join_returns_child_result():
    def child():
        yield Sleep(4.0)
        return 99

    def parent():
        h = yield Spawn(child(), "child")
        value = yield Join(h)
        return value

    result, elapsed = run_process(parent())
    assert result == 99
    assert elapsed == pytest.approx(4.0)


def test_join_on_already_finished_child():
    def child():
        yield Sleep(1.0)
        return "early"

    def parent():
        h = yield Spawn(child(), "child")
        yield Sleep(10.0)
        value = yield Join(h)
        return value

    result, elapsed = run_process(parent())
    assert result == "early"
    assert elapsed == pytest.approx(10.0)


def test_parallel_children_overlap_in_time():
    def child(d):
        yield Sleep(d)

    def parent():
        hs = []
        for d in (10.0, 6.0, 8.0):
            hs.append((yield Spawn(child(d), f"c{d}")))
        for h in hs:
            yield Join(h)

    _, elapsed = run_process(parent())
    assert elapsed == pytest.approx(10.0)  # max, not sum


def test_deadlock_detection():
    ch = Channel("never")

    def stuck():
        yield Recv(ch)

    sched = Scheduler()
    sched.spawn(stuck(), "stuck")
    with pytest.raises(DeadlockError):
        sched.run()


def test_deadlock_names_channel():
    sched = Scheduler()
    ch = Channel("orders")

    def stuck():
        yield Recv(ch)

    sched.spawn(stuck(), name="worker")
    with pytest.raises(DeadlockError,
                       match=r"worker \(waiting on recv\(orders\)\)"):
        sched.run()


def test_deadlock_names_join():
    sched = Scheduler()
    ch = Channel("never")

    def stuck():
        yield Recv(ch)

    def joiner(handle):
        yield Join(handle)

    h = sched.spawn(stuck(), name="rw")
    sched.spawn(joiner(h), name="jw")
    with pytest.raises(DeadlockError) as exc:
        sched.run()
    msg = str(exc.value)
    assert "rw (waiting on recv(never))" in msg
    assert "jw (waiting on join(rw))" in msg


def test_event_counters():
    sched = Scheduler()

    def proc():
        yield Sleep(1.0)
        yield Sleep(1.0)

    sched.spawn(proc(), name="p")
    sched.run()
    assert sched.events_popped == 3  # spawn step + two sleep resumes
    assert sched.heap_peak == 1


def test_daemon_process_does_not_block_termination():
    ch = Channel("never")

    def daemon_loop():
        while True:
            yield Recv(ch)

    def main():
        yield Sleep(1.0)
        return "done"

    sched = Scheduler()
    sched.spawn(daemon_loop(), "d", daemon=True)
    h = sched.spawn(main(), "m")
    sched.run()
    assert h.result == "done"


def test_send_to_closed_channel_raises():
    ch = Channel("c")
    ch.close()

    def proc():
        yield Send(ch, 1)

    sched = Scheduler()
    sched.spawn(proc(), "p")
    with pytest.raises(ChannelClosedError):
        sched.run()


def test_recv_on_closed_channel_and_bad_arms_raise():
    ch = Channel("c")
    with pytest.raises(SimulationError, match="drop count"):
        ch.arm_drop(0)
    with pytest.raises(SimulationError, match="negative delay"):
        ch.arm_delay(-1.0)
    ch.close()

    def proc():
        yield Recv(ch)

    sched = Scheduler()
    h = sched.spawn(proc(), "p")
    with pytest.raises(SimulationError, match="has not finished"):
        h.result
    with pytest.raises(ChannelClosedError, match="recv on closed"):
        sched.run()


def test_sleep_category_accounting():
    def proc():
        yield Sleep(4.0, "middleware")
        yield Sleep(6.0, "compute")
        yield Sleep(1.0, "middleware")

    sched = Scheduler()
    sched.spawn(proc(), "p")
    sched.run()
    assert sched.category_time("middleware") == pytest.approx(5.0)
    assert sched.category_time("compute") == pytest.approx(6.0)
    assert sched.category_time("unknown") == 0.0


def test_run_until_horizon_stops_early():
    def proc():
        yield Sleep(100.0)

    sched = Scheduler()
    sched.spawn(proc(), "p")
    end = sched.run(until=30.0)
    assert end == pytest.approx(30.0)
    # finishing the run afterwards completes the sleep
    end = sched.run()
    assert end == pytest.approx(100.0)


def test_yielding_garbage_raises():
    def proc():
        yield "not a command"

    sched = Scheduler()
    sched.spawn(proc(), "p")
    with pytest.raises(SimulationError, match="non-command"):
        sched.run()


def test_a_command_subclass_is_refused_as_unsupported():
    class LabelledSleep(Sleep):
        __slots__ = ()

    def proc():
        yield LabelledSleep(1.0)

    sched = Scheduler()
    sched.spawn(proc(), "p")
    with pytest.raises(SimulationError, match="unsupported command"):
        sched.run()


def test_deterministic_interleaving():
    """Two identical runs produce identical event orders."""

    def run_once():
        ch = Channel("c")
        order = []

        def producer(tag):
            for i in range(3):
                yield Sleep(1.0)
                yield Send(ch, (tag, i))

        def consumer():
            for _ in range(6):
                order.append((yield Recv(ch)))

        sched = Scheduler()
        sched.spawn(producer("a"), "a")
        sched.spawn(producer("b"), "b")
        sched.spawn(consumer(), "c")
        sched.run()
        return order

    assert run_once() == run_once()
