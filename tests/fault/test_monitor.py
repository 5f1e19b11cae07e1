"""Unit tests for heartbeat monitoring and the watchdog process."""

import pytest

from repro.errors import DaemonDead, SimulationError
from repro.fault import HeartbeatMonitor
from repro.ipc import Scheduler, Sleep


def test_monitor_validation():
    with pytest.raises(SimulationError):
        HeartbeatMonitor(0.0, 10.0)
    with pytest.raises(SimulationError):
        HeartbeatMonitor(2.0, 1.0)     # timeout < interval


def test_register_beat_and_silence():
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(7, now=10.0)
    assert mon.tracked == 1
    assert mon.silent_ms(7, now=12.0) == 2.0
    mon.beat(7, now=12.0)
    assert mon.silent_ms(7, now=12.0) == 0.0
    mon.check(now=17.0)                # exactly at timeout: still fine
    with pytest.raises(DaemonDead) as ei:
        mon.check(now=17.1)
    assert ei.value.daemon_id == 7
    assert ei.value.silent_ms == pytest.approx(5.1)
    assert mon.verdicts == 1


def test_untracked_beats_are_ignored():
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.beat(3, now=0.0)               # never registered
    assert mon.tracked == 0
    assert mon.beats == 0
    assert mon.silent_ms(3, now=100.0) == 0.0
    mon.check(now=100.0)               # nothing to verdict


def test_busy_lease_extends_deadline():
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(0, now=0.0)
    mon.beat(0, now=0.0, busy_until=40.0)   # long legitimate kernel
    mon.check(now=44.0)                      # silent but leased
    with pytest.raises(DaemonDead):
        mon.check(now=45.1)                  # lease + timeout exceeded


def test_beats_never_move_deadline_backwards():
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(0, now=0.0)
    mon.beat(0, now=0.0, busy_until=40.0)
    mon.beat(0, now=3.0)                     # plain beat during the lease
    mon.check(now=44.0)                      # lease still in force


def test_forget_stops_tracking():
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(0, now=0.0)
    mon.forget(0)
    assert mon.tracked == 0
    mon.check(now=100.0)


def test_check_reports_first_dead_daemon_deterministically():
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(4, now=0.0)
    mon.register(1, now=0.0)
    with pytest.raises(DaemonDead) as ei:
        mon.check(now=10.0)
    assert ei.value.daemon_id == 1           # sorted order


def test_watchdog_raises_on_unleased_silence():
    sched = Scheduler()
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(0, sched.clock.now)

    def victim():
        yield Sleep(50.0)                    # silent, no lease declared

    sched.spawn(victim(), name="victim")
    sched.spawn(mon.watchdog(), name="watchdog", daemon=True)
    with pytest.raises(DaemonDead) as ei:
        sched.run()
    assert ei.value.daemon_id == 0
    # detection latency is bounded by timeout + one wake period
    assert 5.0 < ei.value.silent_ms <= 6.0


def test_watchdog_quiet_when_waits_are_leased():
    sched = Scheduler()
    mon = HeartbeatMonitor(1.0, 5.0)
    mon.register(0, sched.clock.now)

    def worker():
        mon.beat(0, 0.0, busy_until=50.0)    # declared busy window
        yield Sleep(50.0)

    sched.spawn(worker(), name="worker")
    sched.spawn(mon.watchdog(), name="watchdog", daemon=True)
    sched.run()                              # no verdict
    assert mon.verdicts == 0


# ---------------------------------------------------------------------------
# The collective verdict: the transport's own, no monitor in between
# ---------------------------------------------------------------------------

def test_collective_verdict_raises_and_clears():
    """A partitioned node outlives every retransmission: the transport
    raises the verdict itself (node, attempts and burned ms named) and
    the armed partition is spent."""
    from repro.cluster import ResilientTransport, Topology
    from repro.errors import NodeUnreachable
    from repro.fault import RetryPolicy
    t = ResilientTransport(Topology([range(4)]),
                           RetryPolicy(max_attempts=4))
    t.arm_partition(3)
    with pytest.raises(NodeUnreachable,
                       match=r"^node 3: no ack after 4 retransmission "
                             r"attempt\(s\) \(\d+\.\d{3} ms burned\)$") as ei:
        t.sync_ms(4, 1000)
    assert ei.value.node_id == 3
    assert ei.value.wasted_ms == pytest.approx(t.net_wasted_ms)
    assert t.partition_verdicts == 1
    assert t.faults_armed == 0
