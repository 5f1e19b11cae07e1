"""Simulated process / IPC substrate.

Provides the deterministic discrete-event machinery the middleware runs on:

* :class:`~repro.ipc.simclock.SimClock` — simulated milliseconds;
* :class:`~repro.ipc.scheduler.Scheduler` — cooperative processes
  (generators yielding :class:`Sleep` / :class:`Send` / :class:`Recv` /
  :class:`Spawn` / :class:`Join` / :class:`Now` commands), stepped one
  event at a time;
* :class:`~repro.ipc.scheduler.Channel` — message channels with a fixed
  delivery latency and armable drop/delay faults;
* :class:`~repro.ipc.shm.ShmRegistry` — simulated System V shared memory.
"""

from .simclock import SimClock
from .scheduler import (
    Channel,
    Command,
    Join,
    Now,
    ProcessHandle,
    Recv,
    Scheduler,
    Send,
    Sleep,
    Spawn,
    run_process,
)
from .shm import IPC_PRIVATE, SharedMemorySegment, ShmRegistry

__all__ = [
    "SimClock",
    "Scheduler",
    "ProcessHandle",
    "Channel",
    "Command",
    "Sleep",
    "Send",
    "Recv",
    "Spawn",
    "Join",
    "Now",
    "run_process",
    "IPC_PRIVATE",
    "SharedMemorySegment",
    "ShmRegistry",
]
