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
    Enqueue a message; delivery is delayed by the channel's latency and
    per-byte cost.  The sender continues immediately.
``SendMany(channel, messages)``
    Enqueue a whole batch in one scheduler transaction — semantically
    identical to ``len(messages)`` consecutive ``Send`` commands (fault
    arms included), but costs O(1) command dispatches.
``Recv(channel)``
    Block until a message is deliverable; the message is the yield value.
``DrainReady(channel)``
    Block until at least one message is queued, then take the *entire*
    queue; the yield value is the list of messages in send order.
``Spawn(generator, name=..., daemon=...)``
    Start a child process; the yield value is its :class:`ProcessHandle`.
``Join(handle)``
    Block until the child finishes; the yield value is its return value.
``WaitBarrier(barrier)``
    Block until ``barrier.parties`` processes arrive, then all resume.
``Now()``
    The yield value is the current simulated time.

Two schedulers share this command set.  :class:`Scheduler` steps one
event at a time off a ``heapq`` and is the *bit-identity oracle*.
:class:`BatchedScheduler` pops whole same-timestamp cohorts from a
vectorized :class:`~repro.ipc.eventheap.EventHeap`; because cohorts are
replayed in global ``(time, seq)`` order it produces exactly the same
interleaving, message orders, and category totals as the oracle (see
``tests/ipc/test_batched_equivalence.py``) while spending far fewer
interpreter cycles per simulated event.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import ChannelClosedError, DeadlockError, SimulationError
from .eventheap import EventHeap
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


class SendMany(Command):
    """Enqueue a batch of messages on ``channel`` in one transaction.

    Equivalent to yielding ``Send(channel, m)`` for each message in
    order — armed drops/delays hit the leading messages exactly as they
    would under sequential sends — but the clean remainder is delivered
    through one bulk scheduler operation.
    """

    __slots__ = ("channel", "messages")

    def __init__(self, channel: "Channel", messages: Iterable[Any]) -> None:
        self.channel = channel
        self.messages = list(messages)


class Recv(Command):
    """Block until a message is available on ``channel``."""

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel


class DrainReady(Command):
    """Block until ``channel`` has queued messages, then take them all.

    The yield value is a list (send order).  A drain waiter parked on an
    empty channel absorbs a whole ``SendMany`` batch as one wake event.
    """

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


class WaitBarrier(Command):
    """Block until all of the barrier's parties have arrived."""

    __slots__ = ("barrier",)

    def __init__(self, barrier: "Barrier") -> None:
        self.barrier = barrier


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
                 "_local_time", "_waiting_on")

    def __init__(self, gen: ProcessGen, name: str, daemon: bool) -> None:
        self._gen = gen
        self.name = name
        self.daemon = daemon
        self._state = _READY
        self._result: Any = None
        self._waiters: List["ProcessHandle"] = []
        self._local_time = 0.0
        # human-readable label of what this process is parked on
        # (channel/barrier/join target); surfaced in DeadlockError
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


class Barrier:
    """A reusable synchronization barrier for ``parties`` processes."""

    __slots__ = ("parties", "name", "_arrived", "generation")

    def __init__(self, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise SimulationError(f"barrier needs >=1 parties, got {parties}")
        self.parties = parties
        self.name = name
        self._arrived: List[ProcessHandle] = []
        self.generation = 0


class _BulkSegment:
    """A uniform-delivery ``SendMany`` batch queued as one entry.

    Every message in the segment shares one ``deliverable_at``, so the
    queue holds a single object instead of per-message tuples.  Indexing
    ``segment[0]`` returns the delivery time, mirroring the tuple
    entries, so ordering scans treat both entry kinds uniformly.
    """

    __slots__ = ("time", "messages", "cursor")

    def __init__(self, time: float, messages: List[Any]) -> None:
        self.time = time
        self.messages = messages
        self.cursor = 0

    def __getitem__(self, index: int) -> float:
        if index == 0:
            return self.time
        raise IndexError(index)

    def __len__(self) -> int:
        return len(self.messages) - self.cursor

    def take_one(self) -> Any:
        message = self.messages[self.cursor]
        self.cursor += 1
        return message


class Channel:
    """A message channel with optional delivery latency and byte cost.

    Models the paper's inter-process message exchange (System V message
    passing between agents and daemons).  ``latency`` is a fixed delivery
    delay; ``cost_per_unit`` charges delivery time proportional to
    ``size_of(message)`` for channels that carry bulk data.

    Receivers get the *earliest-deliverable* queued message.  For queues
    whose delivery times are monotone (the overwhelmingly common case —
    fixed latency, no faults) that is plain FIFO and stays O(1); only
    when an ``arm_delay`` fault (or size-skewed costs) inverts the order
    does recv fall back to a stable min-scan, so a delay-inflated head
    message no longer holds later-sent, earlier-deliverable messages
    hostage (head-of-line blocking).
    """

    __slots__ = ("name", "latency", "cost_per_unit", "size_of", "_queue",
                 "_waiters", "_misordered", "_closed", "messages_sent",
                 "drop_pending", "delay_pending_ms", "messages_dropped",
                 "messages_delayed")

    def __init__(self, name: str = "chan", latency: float = 0.0,
                 cost_per_unit: float = 0.0, size_of=None) -> None:
        self.name = name
        self.latency = float(latency)
        self.cost_per_unit = float(cost_per_unit)
        self.size_of = size_of if size_of is not None else (lambda _msg: 1.0)
        # entries: (deliverable_at, message) tuples or _BulkSegment
        # batches; both expose entry[0] == delivery time
        self._queue: deque = deque()
        # True when _queue's deliverable_at sequence is not non-decreasing
        self._misordered = False
        self._waiters: deque = deque()  # entries: (handle, wants_all)
        self._closed = False
        self.messages_sent = 0
        # fault injection: pending one-shot drops / extra delivery delay
        self.drop_pending = 0
        self.delay_pending_ms = 0.0
        self.messages_dropped = 0
        self.messages_delayed = 0

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

    def _delivery_delay(self, message: Any) -> float:
        return self.latency + self.cost_per_unit * float(self.size_of(message))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel({self.name!r}, queued={len(self._queue)})"


class Scheduler:
    """Deterministic discrete-event scheduler for simulated processes.

    The run loop pops ``(time, seq)``-ordered resume events; ties are broken
    by spawn order, so runs are fully reproducible.  This per-event variant
    is the bit-identity oracle for :class:`BatchedScheduler`.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: List[Tuple[float, int, ProcessHandle, Any]] = []
        self._seq = 0
        self._live = 0          # non-daemon processes not yet done
        self._blocked = 0       # processes parked on channels/joins/barriers
        self.time_by_category: Dict[str, float] = {}
        self.processes: List[ProcessHandle] = []
        # event-loop telemetry (surfaced in trace JSON / run summaries)
        self.events_popped = 0
        self.batches = 0
        self.max_batch = 0
        self.heap_peak = 0

    # -- public API --------------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "proc",
              daemon: bool = False) -> ProcessHandle:
        """Register a new process and schedule its first step at ``now``."""
        handle = ProcessHandle(gen, name, daemon)
        handle._local_time = self.clock.now
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
            self.batches += 1
            if self.max_batch < 1:
                self.max_batch = 1
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
        stuck = []
        for p in self.processes:
            if p._state == _BLOCKED and not p.daemon:
                if p._waiting_on:
                    stuck.append(f"{p.name} (waiting on {p._waiting_on})")
                else:
                    stuck.append(p.name)
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

    def _schedule_many(
        self, entries: List[Tuple[float, ProcessHandle, Any]]
    ) -> None:
        for t, proc, value in entries:
            self._schedule(t, proc, value)

    def _park(self, proc: ProcessHandle,
              waiting_on: Optional[str] = None) -> None:
        proc._state = _BLOCKED
        proc._waiting_on = waiting_on
        self._blocked += 1

    def _unpark(self, t: float, proc: ProcessHandle, value: Any) -> None:
        self._blocked -= 1
        self._schedule(t, proc, value)

    def _finish(self, proc: ProcessHandle, result: Any) -> None:
        proc._state = _DONE
        proc._result = result
        if not proc.daemon:
            self._live -= 1
        now = self.clock.now
        for waiter in proc._waiters:
            self._unpark(now, waiter, result)
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
            # exact-class fast path for the three commands that dominate
            # every workload; subclasses fall through to the
            # isinstance chain below
            cls = cmd.__class__
            if cls is Sleep:
                pass
            elif cls is Send:
                self._do_send(cmd.channel, cmd.message)
                continue
            elif cls is Recv:
                self._do_recv(proc, cmd.channel)
                return
            if isinstance(cmd, Sleep):
                if cmd.category is not None:
                    bucket = self.time_by_category
                    bucket[cmd.category] = (
                        bucket.get(cmd.category, 0.0) + cmd.duration
                    )
                if cmd.duration == 0.0:
                    value = None
                    continue
                self._schedule(self.clock.now + cmd.duration, proc, None)
                return
            if isinstance(cmd, Send):
                self._do_send(cmd.channel, cmd.message)
                continue
            if isinstance(cmd, Recv):
                if self._do_recv(proc, cmd.channel):
                    return  # parked; will resume with the message later
                # immediate delivery happened through _schedule; stop here
                return
            if isinstance(cmd, SendMany):
                self._do_send_many(cmd.channel, cmd.messages)
                continue
            if isinstance(cmd, DrainReady):
                # parked or scheduled with the drained batch; either way
                # the process resumes through the event heap
                self._do_drain(proc, cmd.channel)
                return
            if isinstance(cmd, Spawn):
                value = self.spawn(cmd.generator, cmd.name, cmd.daemon)
                continue
            if isinstance(cmd, Join):
                if cmd.handle.done:
                    value = cmd.handle._result
                    continue
                cmd.handle._waiters.append(proc)
                self._park(proc, f"join({cmd.handle.name})")
                return
            if isinstance(cmd, WaitBarrier):
                if self._do_barrier(proc, cmd.barrier):
                    return  # parked until the barrier trips
                continue
            if isinstance(cmd, Now):
                value = self.clock.now
                continue
            raise SimulationError(
                f"process {proc.name!r} yielded a non-command: {cmd!r}"
            )

    def _do_send(self, channel: Channel, message: Any) -> None:
        if channel.closed:
            raise ChannelClosedError(f"send on closed channel {channel.name!r}")
        channel.messages_sent += 1
        if channel.drop_pending > 0:
            # injected message-drop fault: the send completes but nothing
            # is ever delivered; receivers stay parked until a watchdog
            # (or the deadlock detector) notices the stall.
            channel.drop_pending -= 1
            channel.messages_dropped += 1
            return
        extra_ms = 0.0
        if channel.delay_pending_ms > 0.0:
            extra_ms = channel.delay_pending_ms
            channel.delay_pending_ms = 0.0
            channel.messages_delayed += 1
        deliverable_at = (self.clock.now + channel._delivery_delay(message)
                         + extra_ms)
        if channel._waiters:
            waiter, wants_all = channel._waiters.popleft()
            self._unpark(deliverable_at, waiter,
                         [message] if wants_all else message)
        else:
            queue = channel._queue
            if queue and deliverable_at < queue[-1][0]:
                channel._misordered = True
            queue.append((deliverable_at, message))

    def _do_send_many(self, channel: Channel, messages: List[Any]) -> None:
        """Bulk send: identical semantics to sequential ``_do_send`` calls.

        Armed faults are consumed message-by-message on the leading
        prefix (a drop does *not* consume a pending delay, exactly as in
        ``_do_send``); once no fault is pending, the clean remainder is
        delivered in one bulk operation.
        """
        if channel.closed:
            raise ChannelClosedError(f"send on closed channel {channel.name!r}")
        idx = 0
        n = len(messages)
        while idx < n and (channel.drop_pending > 0
                           or channel.delay_pending_ms > 0.0):
            self._do_send(channel, messages[idx])
            idx += 1
        if idx >= n:
            return
        rest = messages[idx:] if idx else messages
        k = len(rest)
        channel.messages_sent += k
        now = self.clock.now
        uniform = channel.cost_per_unit == 0.0
        if uniform:
            # fixed-latency channel: the whole batch lands at one time
            times = [now + channel.latency] * k
        else:
            delay = channel._delivery_delay
            times = [now + delay(m) for m in rest]
        j = 0
        wake: List[Tuple[float, ProcessHandle, Any]] = []
        while j < k and channel._waiters:
            waiter, wants_all = channel._waiters.popleft()
            if wants_all:
                # one drain waiter absorbs the whole remaining batch as
                # a single wake event at the latest delivery time
                self._blocked -= 1
                self._schedule(max(times[j:]), waiter, list(rest[j:]))
                return
            wake.append((times[j], waiter, rest[j]))
            j += 1
        if wake:
            self._blocked -= len(wake)
            self._schedule_many(wake)
        if j < k:
            queue = channel._queue
            if uniform:
                t = times[0]
                if queue and t < queue[-1][0]:
                    channel._misordered = True
                queue.append(_BulkSegment(t, rest[j:] if j else rest))
            else:
                tail = queue[-1][0] if queue else None
                for i in range(j, k):
                    t = times[i]
                    if tail is not None and t < tail:
                        channel._misordered = True
                    tail = t
                    queue.append((t, rest[i]))

    def _do_recv(self, proc: ProcessHandle, channel: Channel) -> bool:
        """Returns True if the process was parked waiting."""
        if channel._queue:
            queue = channel._queue
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
                entry = queue[best]
                if entry.__class__ is _BulkSegment:
                    deliverable_at = entry.time
                    message = entry.take_one()
                    if not len(entry):
                        del queue[best]
                else:
                    deliverable_at, message = entry
                    del queue[best]
                if not queue:
                    channel._misordered = False
            else:
                head = queue[0]
                if head.__class__ is _BulkSegment:
                    deliverable_at = head.time
                    message = head.take_one()
                    if not len(head):
                        queue.popleft()
                else:
                    deliverable_at, message = queue.popleft()
            resume_at = max(self.clock.now, deliverable_at)
            self._schedule(resume_at, proc, message)
            return False
        if channel.closed:
            raise ChannelClosedError(f"recv on closed channel {channel.name!r}")
        channel._waiters.append((proc, False))
        self._park(proc, f"recv({channel.name})")
        return True

    def _do_drain(self, proc: ProcessHandle, channel: Channel) -> bool:
        """Take the whole queue (or park until something is queued)."""
        if channel._queue:
            entries = channel._queue
            if channel._misordered:
                ready_at = max(entry[0] for entry in entries)
            else:
                # monotone queue: the last entry is the latest delivery
                ready_at = entries[-1][0]
            first = entries[0]
            if len(entries) == 1 and first.__class__ is _BulkSegment \
                    and first.cursor == 0:
                # whole queue is one untouched bulk batch: hand its
                # message list over without copying
                batch = first.messages
            else:
                batch = []
                for entry in entries:
                    if entry.__class__ is _BulkSegment:
                        messages = entry.messages
                        batch.extend(messages if entry.cursor == 0
                                     else messages[entry.cursor:])
                    else:
                        batch.append(entry[1])
            entries.clear()
            channel._misordered = False
            resume_at = max(self.clock.now, ready_at)
            self._schedule(resume_at, proc, batch)
            return False
        if channel.closed:
            raise ChannelClosedError(f"drain on closed channel {channel.name!r}")
        channel._waiters.append((proc, True))
        self._park(proc, f"drain({channel.name})")
        return True

    def _do_barrier(self, proc: ProcessHandle, barrier: Barrier) -> bool:
        """Returns True if the process was parked waiting on the barrier."""
        barrier._arrived.append(proc)
        if len(barrier._arrived) < barrier.parties:
            self._park(
                proc, f"barrier({barrier.name}, {barrier.parties} parties)"
            )
            return True
        # Barrier trips: wake everyone else; the arriving process continues.
        barrier.generation += 1
        now = self.clock.now
        arrived, barrier._arrived = barrier._arrived, []
        wake = [(now, p, None) for p in arrived if p is not proc]
        self._blocked -= len(wake)
        self._schedule_many(wake)
        return False


class BatchedScheduler(Scheduler):
    """Cohort-batched scheduler: same semantics, vectorized event loop.

    Events live in an :class:`EventHeap` (heapq lane + numpy-sorted bulk
    runs) instead of a per-tuple ``heapq``; the run loop pops every
    event sharing the minimum timestamp as one *cohort* and replays it
    in global ``(time, seq)`` order.  New events scheduled mid-cohort
    always carry larger sequence numbers, so cohort replay reproduces
    the per-event :class:`Scheduler`'s interleaving exactly — the
    per-event core stays the bit-identity oracle, this one is the core
    every agent pass runs on.
    """

    def __init__(self) -> None:
        super().__init__()
        self._events = EventHeap()

    def run(self, until: Optional[float] = None) -> float:
        events = self._events
        while len(events):
            if until is not None and events.min_time() > until:
                # stop at the horizon; pending events stay intact so a
                # later run() call picks up exactly where this left off
                self.clock.advance_to(until)
                return self.clock.now
            t, batch = events.pop_cohort()
            self.clock.advance_to(t)
            n = len(batch)
            self.batches += 1
            self.events_popped += n
            if n > self.max_batch:
                self.max_batch = n
            stop = False
            for i in range(n):
                _seq, (proc, value) = batch[i]
                self._step(proc, value)
                if self._live == 0:
                    # push the unprocessed cohort tail back so heap
                    # state matches the per-event scheduler's early stop
                    for j in range(i + 1, n):
                        seq_j, payload_j = batch[j]
                        events.push(t, seq_j, payload_j)
                    self.events_popped -= n - i - 1
                    stop = True
                    break
            if stop:
                break
        if self._live > 0 and not len(events):
            raise self._deadlock()
        return self.clock.now

    # -- internals ---------------------------------------------------------

    def _schedule(self, t: float, proc: ProcessHandle, value: Any) -> None:
        self._seq += 1
        proc._state = _READY
        proc._waiting_on = None
        self._events.push(t, self._seq, (proc, value))
        if len(self._events) > self.heap_peak:
            self.heap_peak = len(self._events)

    def _schedule_many(
        self, entries: List[Tuple[float, ProcessHandle, Any]]
    ) -> None:
        k = len(entries)
        if k == 0:
            return
        seq0 = self._seq + 1
        self._seq += k
        times = []
        payloads = []
        for t, proc, value in entries:
            proc._state = _READY
            proc._waiting_on = None
            times.append(t)
            payloads.append((proc, value))
        self._events.push_many(times, seq0, payloads)
        if len(self._events) > self.heap_peak:
            self.heap_peak = len(self._events)


def run_process(gen: ProcessGen, name: str = "main") -> Tuple[Any, float]:
    """Convenience: run a single process to completion on a fresh scheduler.

    Returns ``(return_value, elapsed_simulated_time)``.
    """
    sched = Scheduler()
    handle = sched.spawn(gen, name=name)
    end = sched.run()
    return handle.result, end
