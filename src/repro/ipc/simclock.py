"""Deterministic simulated clock.

All timings reported by the library (iteration times, pipeline makespans,
figure data points) are *simulated milliseconds* read from a
:class:`SimClock`, never from the wall clock.  This keeps every experiment
deterministic and lets the reproduction match the paper's analytical cost
models (Eq. 1-2, Lemmas 1-3) exactly.
"""

from __future__ import annotations

from ..errors import SimulationError


class SimClock:
    """A monotonically advancing simulated clock (unit: milliseconds)."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t``.

        Raises :class:`SimulationError` on any attempt to move backwards;
        a discrete-event scheduler must only ever pop events in time order.
        """
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards: now={self._now}, requested={t}"
            )
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.6f})"
