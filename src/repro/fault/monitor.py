"""Heartbeat-based failure detection for daemon-agent pairs.

The monitor tracks *pair liveness* on the simulated clock: both the
daemon (Algorithm 1) and its agent-side pipeline driver (Algorithm 2)
beat the same per-daemon entry whenever they make protocol progress, and
every intentional wait — a device kernel, a download, an upload — is
declared up front as a *busy lease* (``busy_until``).  A healthy pair
therefore never goes silent: between leases, progress happens at
message-passing instants of zero simulated duration.

A watchdog process wakes every ``interval_ms``, and when ``now`` exceeds
a pair's lease by more than the allowed silence it raises
:class:`~repro.errors.DaemonDead`.  Because every legitimate wait is
leased, the verdict is deterministic and false-positive-free: only an
injected hang (an unleased sleep) or a dropped control message (both
sides parked forever) can let a deadline expire.

With the straggler layer enabled the flat ``timeout_ms`` is refined by
per-phase deadline *budgets* (download/compute/upload) derived from the
cost model: beats may declare which phase the pair is entering, the
allowed silence becomes that phase's budget, and a busy lease that
outlives its budget is counted as a soft *budget overrun* (reported to
the :class:`~repro.fault.straggler.StragglerDetector`, never killed —
gray failures heartbeat on time; only true silence earns a verdict).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

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
                 timeout_ms: float = HEARTBEAT_TIMEOUT_MS,
                 detector=None) -> None:
        if interval_ms <= 0:
            raise SimulationError(
                f"heartbeat interval must be > 0, got {interval_ms}"
            )
        if timeout_ms < interval_ms:
            raise SimulationError(
                f"heartbeat timeout {timeout_ms} must be >= the "
                f"interval {interval_ms}"
            )
        self.interval_ms = float(interval_ms)
        self.timeout_ms = float(timeout_ms)
        #: daemon_id -> latest "known alive until" time (beat or lease end)
        self._alive_until: Dict[int, float] = {}
        #: daemon_id -> {"download"/"compute"/"upload": allowed ms}
        self._budgets: Dict[int, Dict[str, float]] = {}
        #: daemon_id -> phase declared by the latest beat (None = between
        #: phases; the flat timeout applies)
        self._phase: Dict[int, Optional[str]] = {}
        #: optional StragglerDetector notified of soft budget overruns
        self.detector = detector
        self.beats = 0
        self.verdicts = 0
        self.budget_overruns = 0

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
        self._budgets.pop(daemon_id, None)
        self._phase.pop(daemon_id, None)

    def set_budgets(self, daemon_id: int,
                    budgets: Dict[str, float]) -> None:
        """Install per-phase deadline budgets derived from the cost model.

        A beat that declares ``phase`` makes the pair's allowed silence
        that phase's budget instead of the flat ``timeout_ms``; a lease
        longer than the budget is counted as a soft overrun.
        """
        for phase, allowed in budgets.items():
            if allowed <= 0:
                raise SimulationError(
                    f"phase budget must be > 0, got {phase}={allowed}"
                )
        self._budgets[daemon_id] = dict(budgets)

    def allowed_silence_ms(self, daemon_id: int) -> float:
        """Silence tolerated past the pair's lease right now: the
        declared phase's budget, or the flat timeout between phases."""
        phase = self._phase.get(daemon_id)
        if phase is None:
            return self.timeout_ms
        return self._budgets.get(daemon_id, {}).get(phase,
                                                    self.timeout_ms)

    def beat(self, daemon_id: int, now: float,
             busy_until: Optional[float] = None,
             phase: Optional[str] = None) -> None:
        """Record a heartbeat, optionally extending a busy lease.

        ``busy_until`` declares "I will be legitimately silent until t"
        (a device kernel, a data transfer); ``phase`` names which
        budgeted phase that silence belongs to (a bare beat clears it).
        Beats never move a pair's deadline backwards.
        """
        if daemon_id not in self._alive_until:
            return  # not tracked this pass (e.g. daemon had no work)
        self._phase[daemon_id] = phase
        if busy_until is not None and phase is not None:
            budget = self._budgets.get(daemon_id, {}).get(phase)
            if budget is not None and float(busy_until) - float(now) > budget:
                # the pair is alive but its declared wait already blows
                # the cost-model budget: gray evidence, not a kill
                self.budget_overruns += 1
                if self.detector is not None:
                    self.detector.note_overrun(
                        daemon_id, phase,
                        float(busy_until) - float(now), budget)
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
            allowed = self.allowed_silence_ms(daemon_id)
            if silent > allowed:
                self.verdicts += 1
                raise DaemonDead(
                    f"daemon {daemon_id}: no heartbeat for {silent:.3f} ms "
                    f"(allowed {allowed} ms)",
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

