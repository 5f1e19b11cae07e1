"""Cooperative discrete-event process scheduler.

The paper's daemon-agent framework runs daemons and agents as separate OS
processes exchanging messages (Algorithms 1 and 2).  We reproduce that
control flow faithfully with *simulated processes*: Python generators that
yield :class:`Command` objects to a deterministic scheduler.  Simulated
time only advances through explicit :class:`Sleep` commands, so every run
is reproducible and the measured makespans can be checked against the
paper's analytical models.

A process is any generator function.  Inside it::

    def worker(ch):
        msg = yield Recv(ch)          # block until a message arrives
        yield Sleep(5.0, "compute")   # charge 5 simulated ms to "compute"
        yield Send(ch, "done")        # non-blocking send
        return 42                     # value observable through Join

Commands
--------
``Sleep(duration, category=None)``
    Advance this process's local time; optionally attribute the duration
    to an accounting category (used for the Fig. 14 middleware cost ratio).
``Send(channel, message)``
    Enqueue a message; delivery is delayed by the channel's latency.
    The sender continues immediately.
``Recv(channel)``
    Block until a message is deliverable; the message is the yield value.
``Spawn(generator, name=..., daemon=...)``
    Start a child process; the yield value is its :class:`ProcessHandle`.
``Join(handle)``
    Block until the child finishes; the yield value is its return value.
``Now()``
    The yield value is the current simulated time.

These are exactly the commands the middleware's agent-daemon handshake
yields; :class:`Scheduler` steps them one event at a time off a
``heapq``.  It dispatches on the exact class, so the commands are
final: a subclass of one is refused as an unsupported command.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import ChannelClosedError, DeadlockError, SimulationError
from .simclock import SimClock

ProcessGen = Generator["Command", Any, Any]


class Command:
    """Base class of all scheduler commands a process may yield."""

    __slots__ = ()


class Sleep(Command):
    """Advance simulated time for the yielding process by ``duration`` ms."""

    __slots__ = ("duration", "category")

    def __init__(self, duration: float, category: Optional[str] = None) -> None:
        if duration < 0:
            raise SimulationError(f"cannot sleep a negative duration {duration}")
        self.duration = float(duration)
        self.category = category


class Send(Command):
    """Enqueue ``message`` on ``channel`` without blocking the sender."""

    __slots__ = ("channel", "message")

    def __init__(self, channel: "Channel", message: Any) -> None:
        self.channel = channel
        self.message = message


class Recv(Command):
    """Block until a message is available on ``channel``."""

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel


class Spawn(Command):
    """Start a child process from a generator."""

    __slots__ = ("generator", "name", "daemon")

    def __init__(self, generator: ProcessGen, name: str = "proc",
                 daemon: bool = False) -> None:
        self.generator = generator
        self.name = name
        self.daemon = daemon


class Join(Command):
    """Block until ``handle``'s process terminates; yields its return value."""

    __slots__ = ("handle",)

    def __init__(self, handle: "ProcessHandle") -> None:
        self.handle = handle


class Now(Command):
    """Yields the current simulated time back to the process."""

    __slots__ = ()


_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


class ProcessHandle:
    """Observable state of a simulated process."""

    __slots__ = ("name", "daemon", "_gen", "_state", "_result", "_waiters",
                 "_waiting_on")

    def __init__(self, gen: ProcessGen, name: str, daemon: bool) -> None:
        self._gen = gen
        self.name = name
        self.daemon = daemon
        self._state = _READY
        self._result: Any = None
        self._waiters: List["ProcessHandle"] = []
        # human-readable label of what this process is parked on
        # (channel/join target); surfaced in DeadlockError
        self._waiting_on: Optional[str] = None

    @property
    def done(self) -> bool:
        return self._state == _DONE

    @property
    def result(self) -> Any:
        """Return value of the process; only meaningful once :attr:`done`."""
        if not self.done:
            raise SimulationError(f"process {self.name!r} has not finished")
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessHandle({self.name!r}, state={self._state})"


class Channel:
    """A message channel with an optional fixed delivery latency.

    Models the paper's inter-process message exchange (System V message
    passing between agents and daemons).

    Receivers get the *earliest-deliverable* queued message.  With a
    fixed latency and no faults delivery times are monotone, so that is
    plain FIFO and stays O(1); only when an ``arm_delay`` fault inverts
    the order does recv fall back to a stable min-scan, so a
    delay-inflated head message no longer holds later-sent,
    earlier-deliverable messages hostage (head-of-line blocking).
    """

    __slots__ = ("name", "latency", "_queue", "_waiters", "_misordered",
                 "_closed", "drop_pending", "delay_pending_ms")

    def __init__(self, name: str = "chan", latency: float = 0.0) -> None:
        self.name = name
        self.latency = float(latency)
        # entries: (deliverable_at, message)
        self._queue: deque = deque()
        # True when _queue's deliverable_at sequence is not non-decreasing
        self._misordered = False
        self._waiters: deque = deque()  # parked receivers, arrival order
        self._closed = False
        # fault injection: pending one-shot drops / extra delivery delay
        self.drop_pending = 0
        self.delay_pending_ms = 0.0

    def close(self) -> None:
        self._closed = True

    # -- fault injection ---------------------------------------------------

    def arm_drop(self, count: int = 1) -> None:
        """The next ``count`` sends are silently lost (message-drop fault)."""
        if count < 1:
            raise SimulationError(f"drop count must be >= 1, got {count}")
        self.drop_pending += int(count)

    def arm_delay(self, extra_ms: float) -> None:
        """The next send is delivered ``extra_ms`` late (delay fault)."""
        if extra_ms < 0:
            raise SimulationError(f"negative delay {extra_ms}")
        self.delay_pending_ms += float(extra_ms)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel({self.name!r}, queued={len(self._queue)})"


class Scheduler:
    """Deterministic discrete-event scheduler for simulated processes.

    The run loop pops ``(time, seq)``-ordered resume events one at a
    time; ties are broken by scheduling order, so runs are fully
    reproducible.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: List[Tuple[float, int, ProcessHandle, Any]] = []
        self._seq = 0
        self._live = 0          # non-daemon processes not yet done
        self.time_by_category: Dict[str, float] = {}
        self.processes: List[ProcessHandle] = []
        # event-loop telemetry (surfaced in trace JSON / run summaries)
        self.events_popped = 0
        self.heap_peak = 0

    # -- public API --------------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "proc",
              daemon: bool = False) -> ProcessHandle:
        """Register a new process and schedule its first step at ``now``."""
        handle = ProcessHandle(gen, name, daemon)
        self.processes.append(handle)
        if not daemon:
            self._live += 1
        self._schedule(self.clock.now, handle, None)
        return handle

    def run(self, until: Optional[float] = None) -> float:
        """Run until no non-daemon process remains runnable (or ``until``).

        Returns the final simulated time.  Raises :class:`DeadlockError` if
        non-daemon processes are blocked with no event able to wake them.
        """
        while self._heap:
            t, _seq, proc, value = heapq.heappop(self._heap)
            if until is not None and t > until:
                # push back and stop at the horizon
                heapq.heappush(self._heap, (t, _seq, proc, value))
                self.clock.advance_to(until)
                return self.clock.now
            self.clock.advance_to(t)
            self.events_popped += 1
            self._step(proc, value)
            if self._live == 0:
                break
        if self._live > 0 and not self._heap:
            raise self._deadlock()
        return self.clock.now

    def category_time(self, category: str) -> float:
        """Total simulated time charged to ``category`` via Sleep."""
        return self.time_by_category.get(category, 0.0)

    # -- internals ---------------------------------------------------------

    def _deadlock(self) -> DeadlockError:
        stuck = [f"{p.name} (waiting on {p._waiting_on})"
                 for p in self.processes
                 if p._state == _BLOCKED and not p.daemon]
        return DeadlockError(
            f"deadlock: no runnable process; blocked: {stuck}"
        )

    def _schedule(self, t: float, proc: ProcessHandle, value: Any) -> None:
        self._seq += 1
        proc._state = _READY
        proc._waiting_on = None
        heapq.heappush(self._heap, (t, self._seq, proc, value))
        if len(self._heap) > self.heap_peak:
            self.heap_peak = len(self._heap)

    def _park(self, proc: ProcessHandle, waiting_on: str) -> None:
        proc._state = _BLOCKED
        proc._waiting_on = waiting_on

    def _finish(self, proc: ProcessHandle, result: Any) -> None:
        proc._state = _DONE
        proc._result = result
        if not proc.daemon:
            self._live -= 1
        now = self.clock.now
        for waiter in proc._waiters:
            self._schedule(now, waiter, result)
        proc._waiters.clear()

    def _step(self, proc: ProcessHandle, value: Any) -> None:
        """Advance ``proc`` until it blocks, sleeps, or terminates."""
        proc._state = _RUNNING
        gen = proc._gen
        while True:
            try:
                cmd = gen.send(value)
            except StopIteration as stop:
                self._finish(proc, stop.value)
                return
            value = None
            # exact-class dispatch, most frequent command first
            cls = cmd.__class__
            if cls is Send:
                self._do_send(cmd.channel, cmd.message)
            elif cls is Recv:
                # resumes with the message, now or once one is sent
                self._do_recv(proc, cmd.channel)
                return
            elif cls is Sleep:
                if cmd.category is not None:
                    bucket = self.time_by_category
                    bucket[cmd.category] = (
                        bucket.get(cmd.category, 0.0) + cmd.duration
                    )
                if cmd.duration != 0.0:
                    self._schedule(self.clock.now + cmd.duration, proc, None)
                    return
            elif cls is Spawn:
                value = self.spawn(cmd.generator, cmd.name, cmd.daemon)
            elif cls is Join:
                if not cmd.handle.done:
                    cmd.handle._waiters.append(proc)
                    self._park(proc, f"join({cmd.handle.name})")
                    return
                value = cmd.handle._result
            elif cls is Now:
                value = self.clock.now
            elif isinstance(cmd, Command):
                raise SimulationError(
                    f"process {proc.name!r} yielded an unsupported "
                    f"command {cmd!r}: the commands are final, "
                    f"subclasses are not dispatched")
            else:
                raise SimulationError(
                    f"process {proc.name!r} yielded a non-command: {cmd!r}"
                )

    def _do_send(self, channel: Channel, message: Any) -> None:
        if channel.closed:
            raise ChannelClosedError(f"send on closed channel {channel.name!r}")
        if channel.drop_pending > 0:
            # injected message-drop fault: the send completes but nothing
            # is ever delivered; receivers stay parked until a watchdog
            # (or the deadlock detector) notices the stall.
            channel.drop_pending -= 1
            return
        extra_ms = 0.0
        if channel.delay_pending_ms > 0.0:
            extra_ms = channel.delay_pending_ms
            channel.delay_pending_ms = 0.0
        deliverable_at = self.clock.now + channel.latency + extra_ms
        if channel._waiters:
            self._schedule(deliverable_at, channel._waiters.popleft(), message)
        else:
            queue = channel._queue
            if queue and deliverable_at < queue[-1][0]:
                channel._misordered = True
            queue.append((deliverable_at, message))

    def _do_recv(self, proc: ProcessHandle, channel: Channel) -> None:
        """Schedule ``proc`` to resume with the earliest-deliverable
        message, or park it on the channel until one is sent."""
        queue = channel._queue
        if queue:
            if channel._misordered:
                # stable min-scan: earliest deliverable_at, ties to the
                # earliest-sent (head-of-line blocking fix)
                best = 0
                best_t = queue[0][0]
                for i in range(1, len(queue)):
                    t_i = queue[i][0]
                    if t_i < best_t:
                        best_t = t_i
                        best = i
                deliverable_at, message = queue[best]
                del queue[best]
                if not queue:
                    channel._misordered = False
            else:
                deliverable_at, message = queue.popleft()
            self._schedule(max(self.clock.now, deliverable_at), proc, message)
            return
        if channel.closed:
            raise ChannelClosedError(f"recv on closed channel {channel.name!r}")
        channel._waiters.append(proc)
        self._park(proc, f"recv({channel.name})")


def run_process(gen: ProcessGen, name: str = "main") -> Tuple[Any, float]:
    """Convenience: run a single process to completion on a fresh scheduler.

    Returns ``(return_value, elapsed_simulated_time)``.
    """
    sched = Scheduler()
    handle = sched.spawn(gen, name=name)
    end = sched.run()
    return handle.result, end
