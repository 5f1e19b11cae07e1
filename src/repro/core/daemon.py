"""The daemon: accelerator wrapper with runtime/iteration control (§II-A1).

A daemon represents one accelerator.  It holds a System V shared memory
segment (identified by its unique key) containing the rotating n/c/u
block areas, and the two control channels to its agent.
Its iteration behaviour is the paper's Algorithm 1: on ``ExchangeFinished``
rotate the areas and acknowledge with ``RotateFinished``; compute the
c-area block on the device and report ``ComputeFinished``; when the c-area
is empty after a rotation the iteration's blocks are exhausted and the
daemon reports ``ComputeAllFinished``.

Runtime isolation (§IV-C): the daemon process outlives upper-system calls,
so the device initializes exactly once.  With isolation disabled
(``MiddlewareConfig.runtime_isolation=False``) the device context is torn
down after every request and re-initialization is charged each time — the
"direct GPU call" baseline of Fig. 13.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from ..accel.device import Accelerator
from ..errors import ProtocolError, ShmError
from ..ipc import Channel, Now, Recv, Send, Sleep
from ..ipc.shm import ShmRegistry
from .blocks import AreaSet, TripletBlock
from .config import MiddlewareConfig
from .template import AlgorithmTemplate, MessageSet

# Control message vocabulary of Algorithms 1-2.
MSG_EXCHANGE_FINISHED = "ExchangeFinished"
MSG_ROTATE_FINISHED = "RotateFinished"
MSG_COMPUTE_FINISHED = "ComputeFinished"
MSG_COMPUTE_ALL_FINISHED = "ComputeAllFinished"

#: Base System V key space for daemon segments (arbitrary, SysV-style hex).
DAEMON_KEY_BASE = 0x47580000

#: Accounting categories for the Fig. 14 middleware cost ratio.
CAT_COMPUTE = "middleware.compute"
CAT_DOWNLOAD = "middleware.download"
CAT_UPLOAD = "middleware.upload"
CAT_INIT = "middleware.init"

#: Simulated time burned by an injected daemon hang (fault subsystem).
CAT_HANG = "fault.hang"


class Daemon:
    """One accelerator's daemon: template holder + iteration control."""

    def __init__(self, daemon_id: int, accelerator: Accelerator,
                 registry: ShmRegistry, config: MiddlewareConfig) -> None:
        self.daemon_id = daemon_id
        self.accelerator = accelerator
        self.registry = registry
        self.config = config
        # the daemon's unique System V key and shared segment (§II-B)
        self.key = DAEMON_KEY_BASE + daemon_id
        self.segment = registry.shmget(self.key).attach(f"daemon-{daemon_id}")
        self.areas = AreaSet()
        self.segment.put("areas", self.areas)
        # control channels (message exchange, not data: data lives in shm)
        self.to_daemon = Channel(f"agent->daemon{daemon_id}")
        self.to_agent = Channel(f"daemon{daemon_id}->agent")
        self.blocks_computed = 0
        # fault subsystem state: the pair's heartbeat monitor for the
        # current pass, plus armed-but-unfired injected faults
        self.heartbeat = None
        self.pending_hang_ms: Optional[float] = None
        self.pending_crashes = 0
        self.crash_after_kernels = 0
        self.respawns = 0
        # gray-failure state (repro.fault.straggler): armed slowdowns
        # inflate *simulated durations only* — computed values are
        # untouched, which is what keeps faulted runs bit-identical.
        self.straggler = None
        self.slow_factor = 1.0
        self.slow_passes_left = 0
        self.slow_passes_done = 0
        self.slow_flaky = False
        self.transfer_slow_factor = 1.0
        self.transfer_slow_passes_left = 0
        #: did this daemon finish (or never get) work this pass?  Set by
        #: the agent; speculation picks its backup among idle daemons.
        self.pass_idle = False

    def reset_protocol(self) -> None:
        """Recover from a mid-pass failure: drop in-flight blocks and
        control messages so the next pass starts from a clean protocol
        state (the device context is re-established separately)."""
        for area in self.areas.areas():
            area.clear()
        self.to_daemon = Channel(f"agent->daemon{self.daemon_id}")
        self.to_agent = Channel(f"daemon{self.daemon_id}->agent")

    # -- gray failures (repro.fault.straggler) ------------------------------

    def arm_slowdown(self, factor: float, passes: int,
                     flaky: bool = False) -> None:
        """Inflate this daemon's compute durations by ``factor`` for the
        next ``passes`` edge passes (``flaky`` applies it every other
        pass only).  The daemon stays alive and keeps heartbeating — a
        gray failure, invisible to the binary fault machinery."""
        self.slow_factor = float(factor)
        self.slow_passes_left = int(passes)
        self.slow_passes_done = 0
        self.slow_flaky = bool(flaky)

    def arm_transfer_slowdown(self, factor: float, passes: int) -> None:
        """Inflate the pair's download/upload costs instead (shm/PCIe
        pressure rather than a throttled device)."""
        self.transfer_slow_factor = float(factor)
        self.transfer_slow_passes_left = int(passes)

    @property
    def compute_inflation(self) -> float:
        """Current compute-duration multiplier (1.0 when healthy)."""
        if self.slow_passes_left <= 0:
            return 1.0
        if self.slow_flaky and self.slow_passes_done % 2 == 1:
            return 1.0
        return self.slow_factor

    @property
    def transfer_inflation(self) -> float:
        """Current transfer-cost multiplier (1.0 when healthy)."""
        if self.transfer_slow_passes_left <= 0:
            return 1.0
        return self.transfer_slow_factor

    def note_pass_end(self) -> None:
        """One edge pass completed; tick down armed gray windows."""
        if self.slow_passes_left > 0:
            self.slow_passes_left -= 1
            self.slow_passes_done += 1
        if self.transfer_slow_passes_left > 0:
            self.transfer_slow_passes_left -= 1

    def verify_segment(self) -> None:
        """Integrity-check the daemon's shared memory before a pass.

        Raises :class:`~repro.errors.ShmCorruption`; the agent's recovery
        loop answers by respawning the daemon (segment rebuilt).
        """
        self.segment.verify()

    def respawn(self) -> None:
        """Full daemon restart after an unrecoverable-in-place fault.

        The old process's System V segment dies with it; a fresh segment
        is re-created and re-attached through the registry, the block
        areas and control channels are rebuilt, and the device context is
        released so the next pass pays re-initialization.  A recurring
        crash plan re-arms itself here (that is what lets a fault plan
        exhaust the retry budget deterministically).
        """
        self.respawns += 1
        self.accelerator.shutdown()
        try:
            self.registry.shmrm(self.key)
        except ShmError:  # pragma: no cover - segment already gone
            pass
        self.segment = self.registry.shmget(self.key).attach(
            f"daemon-{self.daemon_id}")
        self.areas = AreaSet()
        self.segment.put("areas", self.areas)
        self.to_daemon = Channel(f"agent->daemon{self.daemon_id}")
        self.to_agent = Channel(f"daemon{self.daemon_id}->agent")
        self.pending_hang_ms = None
        if self.pending_crashes > 0:
            self.pending_crashes -= 1
            self.accelerator.inject_failure(self.crash_after_kernels)

    # -- device lifecycle --------------------------------------------------------

    def init_cost_ms(self) -> float:
        """Charge for making the device ready for the next request.

        Zero when runtime isolation keeps the initialized context alive.
        """
        if self.accelerator.initialized and self.config.runtime_isolation:
            return 0.0
        return self.accelerator.init()

    def release_after_request(self) -> None:
        """Without isolation the device context dies with the call."""
        if not self.config.runtime_isolation:
            self.accelerator.shutdown()

    # -- kernels --------------------------------------------------------------------

    def compute_block(self, block: TripletBlock) -> float:
        """Charge one block's MSGGen + block-local MSGMerge to the device.

        Returns the simulated device time (T_call + per-entity
        compute/copy, Eq. 2).  The kernel is empty — the agent computes
        the pass's messages once from the triplets, so block boundaries
        can shape cost only — but the call still goes through the device:
        armed faults fire here and its kernel counters advance.
        """
        _, duration = self.accelerator.run(
            lambda: None, entities=block.num_entities)
        self.blocks_computed += 1
        expected = duration
        inflation = self.compute_inflation
        if inflation != 1.0:
            duration *= inflation
        if self.straggler is not None and block.num_entities:
            self.straggler.observe(self.daemon_id, "compute",
                                   block.num_entities, duration, expected)
        return duration

    def apply_messages(self, algorithm: AlgorithmTemplate,
                       values: np.ndarray, merged: MessageSet
                       ) -> Tuple[np.ndarray, np.ndarray, float]:
        """MSGApply on the device: fold merged messages into vertex values.

        Returns ``(new_values, changed_ids, simulated_ms)``.
        """
        def kernel():
            return algorithm.msg_apply(values, merged)

        (new_values, changed), duration = self.accelerator.run(
            kernel, entities=merged.size)
        return new_values, changed, duration * self.compute_inflation

    def scatter_cost_ms(self, affected_edges: int) -> float:
        """Device time of a GAS scatter pass over ``affected_edges``."""
        return self.accelerator.kernel_ms(affected_edges)

    # -- Algorithm 1 ------------------------------------------------------------------

    def iteration_process(self) -> Generator:
        """The daemon side of one pipelined iteration (paper Algorithm 1).

        Runs as a simulated process.  After each rotation the daemon
        immediately computes the c-area block (the paper's pseudocode
        leaves the compute trigger implicit; computing right after
        ``RotateFinished`` is the only schedule that terminates and it
        yields exactly the Eq. 1 makespan).
        """
        while True:
            msg = yield Recv(self.to_daemon)
            if self.heartbeat is not None:
                now = yield Now()
                self.heartbeat.beat(self.daemon_id, now)
            if msg == MSG_EXCHANGE_FINISHED:
                self.areas.rotate()
                yield Send(self.to_agent, MSG_ROTATE_FINISHED)
                if self.pending_hang_ms is not None:
                    # injected hang: the daemon goes silent without a
                    # busy lease, so the watchdog sees missed heartbeats
                    hang_ms, self.pending_hang_ms = self.pending_hang_ms, None
                    yield Sleep(hang_ms, CAT_HANG)
                area = self.areas.c
                if area.block is not None:
                    block = area.block
                    duration = self.compute_block(block)
                    if self.heartbeat is not None:
                        # legitimate silence: lease the kernel's duration
                        now = yield Now()
                        self.heartbeat.beat(self.daemon_id, now,
                                            busy_until=now + duration)
                    yield Sleep(duration, CAT_COMPUTE)
                    # result replaces the block in situ (*c <- com_dev.data)
                    area.block = None
                    area.result = block
                    yield Send(self.to_agent, MSG_COMPUTE_FINISHED)
                else:
                    yield Send(self.to_agent, MSG_COMPUTE_ALL_FINISHED)
                    return
            else:
                raise ProtocolError(
                    f"daemon {self.daemon_id}: unexpected message {msg!r}"
                )
