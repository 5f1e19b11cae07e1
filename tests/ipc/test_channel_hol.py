"""Regression tests for Channel head-of-line blocking.

An ``arm_delay``-inflated message at the queue head used to also delay
later-sent messages whose ``deliverable_at`` was earlier, because recv
popped strictly FIFO.  Receivers now take the earliest-deliverable
entry (stable on ties), so only the faulted message is late.
"""

import pytest

from repro.ipc import Channel, Now, Recv, Scheduler, Send, Sleep


@pytest.fixture
def sched():
    return Scheduler()


def test_delayed_head_does_not_block_later_messages(sched):
    ch = Channel("data", latency=1.0)

    def sender():
        ch.arm_delay(500.0)
        yield Send(ch, "slow")   # deliverable at 501
        yield Send(ch, "fast")   # deliverable at 1

    def receiver():
        first = yield Recv(ch)
        t_first = yield Now()
        second = yield Recv(ch)
        t_second = yield Now()
        return [(first, t_first), (second, t_second)]

    sched.spawn(sender(), name="tx")
    rx = sched.spawn(receiver(), name="rx")
    sched.run()
    # the un-faulted message arrives on time; the delayed one after it
    assert rx.result == [("fast", 1.0), ("slow", 501.0)]


def test_fifo_preserved_on_ordered_queue(sched):
    ch = Channel("data", latency=2.0)

    def sender():
        for i in range(5):
            yield Send(ch, i)
            yield Sleep(1.0)

    def receiver():
        got = []
        for _ in range(5):
            got.append((yield Recv(ch)))
        return got

    sched.spawn(sender(), name="tx")
    rx = sched.spawn(receiver(), name="rx")
    sched.run()
    assert rx.result == [0, 1, 2, 3, 4]


def test_tie_breaks_to_earliest_sent(sched):
    # equal deliverable_at: delivery order must stay send order
    ch = Channel("data", latency=0.0)

    def sender():
        ch.arm_delay(10.0)
        yield Send(ch, "delayed")     # deliverable at 10
        for message in ("a", "b", "c"):  # deliverable at 0, equal times
            yield Send(ch, message)

    def receiver():
        got = []
        for _ in range(4):
            got.append((yield Recv(ch)))
        return got

    sched.spawn(sender(), name="tx")
    rx = sched.spawn(receiver(), name="rx")
    sched.run()
    assert rx.result == ["a", "b", "c", "delayed"]


def test_misordered_flag_resets_when_queue_empties():
    sched = Scheduler()
    ch = Channel("data", latency=1.0)

    def sender():
        ch.arm_delay(50.0)
        yield Send(ch, "slow")
        yield Send(ch, "fast")

    def receiver():
        yield Recv(ch)
        yield Recv(ch)
        # queue drained: the channel should be back on the O(1) path
        assert not ch._misordered
        yield Send(ch, "tail-a")
        yield Send(ch, "tail-b")
        assert not ch._misordered
        got = [(yield Recv(ch)), (yield Recv(ch))]
        return got

    sched.spawn(sender(), name="tx")
    rx = sched.spawn(receiver(), name="rx")
    sched.run()
    assert rx.result == ["tail-a", "tail-b"]
