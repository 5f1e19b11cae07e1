"""Heartbeat-based failure detection for daemon-agent pairs.

The monitor tracks *pair liveness* on the simulated clock: both the
daemon (Algorithm 1) and its agent-side pipeline driver (Algorithm 2)
beat the same per-daemon entry whenever they make protocol progress, and
every intentional wait — a device kernel, a download, an upload — is
declared up front as a *busy lease* (``busy_until``).  A healthy pair
therefore never goes silent: between leases, progress happens at
message-passing instants of zero simulated duration.

A watchdog process wakes every ``interval_ms``, and when ``now`` exceeds
a pair's lease by more than ``timeout_ms`` it raises
:class:`~repro.errors.DaemonDead`.  Because every legitimate wait is
leased, the verdict is deterministic and false-positive-free: only an
injected hang (an unleased sleep) or a dropped control message (both
sides parked forever) can let a deadline expire — so an agent builds a
monitor only for a pass whose fault plan holds such a stall.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..core.config import check_cost
from ..errors import DaemonDead, SimulationError
from ..ipc.scheduler import Now, Sleep

#: Watchdog wake period on the simulated clock.
HEARTBEAT_INTERVAL_MS = 2.0

#: Silence (past any busy lease) tolerated before a daemon is declared
#: dead; a stalled pass is detected within ``timeout + interval`` ms.
HEARTBEAT_TIMEOUT_MS = 12.0


class HeartbeatMonitor:
    """Per-daemon liveness tracking with busy leases."""

    def __init__(self, interval_ms: float = HEARTBEAT_INTERVAL_MS,
                 timeout_ms: float = HEARTBEAT_TIMEOUT_MS) -> None:
        self.interval_ms = check_cost("heartbeat interval_ms", interval_ms,
                                      positive=True, error=SimulationError)
        self.timeout_ms = check_cost("heartbeat timeout_ms", timeout_ms,
                                     error=SimulationError)
        if self.timeout_ms < self.interval_ms:
            raise SimulationError(
                f"heartbeat timeout {timeout_ms} must be >= the "
                f"interval {interval_ms}"
            )
        #: daemon_id -> latest "known alive until" time (beat or lease end)
        self._alive_until: Dict[int, float] = {}
        self.beats = 0
        self.verdicts = 0

    @property
    def tracked(self) -> int:
        """How many daemons the monitor is currently watching."""
        return len(self._alive_until)

    # -- recording ----------------------------------------------------------

    def register(self, daemon_id: int, now: float) -> None:
        """Start tracking a daemon; it is considered alive as of ``now``."""
        self._alive_until[daemon_id] = float(now)

    def forget(self, daemon_id: int) -> None:
        self._alive_until.pop(daemon_id, None)

    def beat(self, daemon_id: int, now: float,
             busy_until: Optional[float] = None) -> None:
        """Record a heartbeat, optionally extending a busy lease.

        ``busy_until`` declares "I will be legitimately silent until t"
        (a device kernel, a data transfer).  Beats never move a pair's
        deadline backwards.
        """
        if daemon_id not in self._alive_until:
            return  # not tracked this pass (e.g. daemon had no work)
        alive = float(now) if busy_until is None else float(busy_until)
        if alive > self._alive_until[daemon_id]:
            self._alive_until[daemon_id] = alive
        self.beats += 1

    # -- verdicts ----------------------------------------------------------

    def silent_ms(self, daemon_id: int, now: float) -> float:
        """How long past its lease the daemon has been silent."""
        alive_until = self._alive_until.get(daemon_id)
        if alive_until is None:
            return 0.0
        return max(0.0, float(now) - alive_until)

    def check(self, now: float) -> None:
        """Raise :class:`DaemonDead` for the first timed-out daemon."""
        for daemon_id in sorted(self._alive_until):
            silent = self.silent_ms(daemon_id, now)
            if silent > self.timeout_ms:
                self.verdicts += 1
                raise DaemonDead(
                    f"daemon {daemon_id}: no heartbeat for {silent:.3f} ms "
                    f"(allowed {self.timeout_ms} ms)",
                    daemon_id=daemon_id, silent_ms=silent,
                )

    # -- the watchdog process ----------------------------------------------

    def watchdog(self) -> Generator:
        """A simulated daemon process that periodically checks deadlines.

        Spawned with ``daemon=True`` on the pass scheduler: it never
        blocks pass completion, and a raised verdict propagates out of
        ``Scheduler.run`` into the agent's recovery loop.
        """
        while True:
            yield Sleep(self.interval_ms)
            now = yield Now()
            self.check(now)

