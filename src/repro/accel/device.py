"""Simulated accelerator devices.

An :class:`Accelerator` executes real numpy kernels while charging
*simulated* time from its :class:`~repro.accel.costmodel.DeviceCostModel`.
The daemon drives it through a load/compute/store cycle (the paper's
``com_dev.Load / com_dev.Compute`` of Algorithm 1) and sleeps for the
durations the device reports, so computation results are real but timing is
deterministic.

Lifecycle (§IV-C runtime isolation): a device must be initialized before
use.  ``init()`` returns the initialization cost; under the daemon-agent
framework it is paid once, whereas a naively integrated system pays it per
call — the comparison of Fig. 13.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..errors import DeviceError, DeviceFailure, DeviceMemoryError
from .costmodel import DeviceCostModel


class Accelerator:
    """One simulated computation device (GPU or multicore CPU)."""

    def __init__(self, model: DeviceCostModel, device_id: int = 0) -> None:
        self.model = model
        self.device_id = device_id
        self._initialized = False
        self._fail_after: Optional[int] = None
        # instrumentation
        self.init_count = 0
        self.kernel_count = 0
        self.entities_processed = 0
        self.failure_count = 0

    # -- fault injection -----------------------------------------------------

    def inject_failure(self, after_kernels: int = 0) -> None:
        """Arm a one-shot fault: the device crashes on the kernel launched
        after ``after_kernels`` more successful launches.

        A crash loses the device context (re-initialization required) —
        the failure-recovery tests drive the daemon-agent framework
        through exactly this.
        """
        if after_kernels < 0:
            raise DeviceError(f"negative countdown {after_kernels}")
        self._fail_after = after_kernels

    def _maybe_fail(self) -> None:
        if self._fail_after is None:
            return
        if self._fail_after > 0:
            self._fail_after -= 1
            return
        self._fail_after = None
        self._initialized = False
        self.failure_count += 1
        raise DeviceFailure(
            f"{self.model.name}[{self.device_id}]: device fault injected"
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self._initialized

    def init(self) -> float:
        """Initialize the device context; returns the simulated cost in ms."""
        self._initialized = True
        self.init_count += 1
        return self.model.init_ms

    def shutdown(self) -> None:
        """Release the device context (forces re-init before next use)."""
        self._initialized = False

    # -- memory ---------------------------------------------------------------

    def ensure_capacity(self, nbytes: int) -> None:
        """Admission check: raise if ``nbytes`` exceeds device memory.

        Reproduces Fig. 9(b): single-GPU systems overflow on graphs larger
        than device memory.
        """
        if nbytes < 0:
            raise DeviceError(f"negative allocation {nbytes}")
        if nbytes > self.model.memory_bytes:
            raise DeviceMemoryError(
                f"{self.model.name}[{self.device_id}]: working set "
                f"{nbytes} B exceeds device memory {self.model.memory_bytes} B"
            )

    # -- execution --------------------------------------------------------------

    def kernel_ms(self, num_entities: int) -> float:
        """Simulated duration of a kernel over ``num_entities`` entities."""
        return self.model.kernel_ms(num_entities)

    def run(self, kernel: Callable[..., Any], *args: Any,
            entities: int, **kwargs: Any) -> Tuple[Any, float]:
        """Execute ``kernel(*args, **kwargs)`` on the device.

        Returns ``(result, simulated_duration_ms)``.  The caller (daemon)
        is responsible for sleeping the returned duration on the simulated
        clock.  Raises :class:`DeviceError` if the device was never
        initialized — the bug runtime isolation exists to prevent.
        """
        if not self._initialized:
            raise DeviceError(
                f"{self.model.name}[{self.device_id}]: compute before init"
            )
        if entities < 0:
            raise DeviceError(f"negative entity count {entities}")
        self._maybe_fail()
        result = kernel(*args, **kwargs)
        self.kernel_count += 1
        self.entities_processed += entities
        return result, self.kernel_ms(entities)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Accelerator({self.model.name!r}, id={self.device_id}, "
                f"init={self._initialized})")
