"""Retry policy with exponential backoff for transient faults.

Transient faults — a dropped control message, a one-off device crash, a
hang the watchdog converted into a verdict — are survived by re-running
the failed pass after a backoff delay.  The delay is *simulated* time
(charged to the pass like any other cost), grows exponentially with the
attempt number, and is capped so a deep retry chain cannot dominate the
makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.config import check_cost, check_count
from ..errors import FaultError


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to back off between tries."""

    max_attempts: int = 3
    base_delay_ms: float = 0.5
    backoff_factor: float = 2.0
    max_delay_ms: float = 50.0

    def __post_init__(self) -> None:
        check_count("max_attempts", self.max_attempts, 0, error=FaultError)
        check_cost("base_delay_ms", self.base_delay_ms, error=FaultError)
        if check_cost("backoff_factor", self.backoff_factor,
                      error=FaultError) < 1.0:
            raise FaultError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if check_cost("max_delay_ms", self.max_delay_ms,
                      error=FaultError) < self.base_delay_ms:
            raise FaultError(
                f"max_delay_ms {self.max_delay_ms} must be >= "
                f"base_delay_ms {self.base_delay_ms}"
            )

    def backoff_ms(self, attempt: int) -> float:
        """Simulated delay before retry number ``attempt`` (1-based)."""
        check_count("attempt (1-based)", attempt, 1, error=FaultError)
        delay = self.base_delay_ms * self.backoff_factor ** (attempt - 1)
        return min(delay, self.max_delay_ms)

    def delays(self) -> Tuple[float, ...]:
        """The full backoff schedule, one entry per allowed retry."""
        return tuple(self.backoff_ms(a)
                     for a in range(1, self.max_attempts + 1))
