"""Superstep checkpointing of vertex state for rollback recovery.

Retries handle transient faults *within* a superstep; checkpoints handle
the faults retries cannot: when a node's accelerators are exhausted the
superstep's partial progress (device buffers, agent caches) is no longer
trustworthy, so the engine rolls the vertex tables back to the last
consistent superstep and re-executes from there — the small-cluster
recovery protocol shape (Yan et al.) instead of GraphX's full lineage
recomputation from iteration 0.

Checkpoints are **incremental**: when the caller passes the vertices
changed since the last save, only their rows are stored as a *delta*
against the last full snapshot (plus the active-flag flips), and the
snapshot cost is charged on the cells actually written.  A full snapshot
is taken every ``full_every`` deltas (and whenever no change set is
supplied), bounding the reconstruction chain.  Frontier algorithms
(SSSP/BFS), whose supersteps touch a sliver of the vertex table, stop
paying for snapshotting mostly-unchanged state.

Checkpoint cost is simulated (``fixed_ms + ms_per_cell * cells``) and is
reported per superstep in the trace (``checkpoint_ms``) so the overhead
of the protection is visible and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..core.config import check_cost, check_count
from ..errors import CheckpointError
from ..graph import distinct_ids


@dataclass
class Checkpoint:
    """One durable full snapshot of engine state at a superstep boundary."""

    iteration: int
    values: np.ndarray
    active: np.ndarray
    cost_ms: float

    @property
    def cells(self) -> int:
        return int(self.values.size)


@dataclass
class CheckpointDelta:
    """Changed rows (and active flips) since the previous save."""

    iteration: int
    ids: np.ndarray               # changed vertex ids
    rows: np.ndarray              # their new value rows
    active_flips: np.ndarray      # vertices whose active flag toggled
    cost_ms: float

    @property
    def cells(self) -> int:
        return int(self.rows.size)


class CheckpointStore:
    """Keeps the newest full vertex-table snapshot and the deltas saved
    on top of it, charging their cost."""

    def __init__(self, interval: int, ms_per_cell: float = 2e-5,
                 fixed_ms: float = 0.5, full_every: int = 8) -> None:
        check_count("checkpoint interval", interval, 1, error=CheckpointError)
        check_count("full_every", full_every, 1, error=CheckpointError)
        self.interval = int(interval)
        self.ms_per_cell = check_cost("ms_per_cell", ms_per_cell,
                                      error=CheckpointError)
        self.fixed_ms = check_cost("fixed_ms", fixed_ms,
                                   error=CheckpointError)
        self.full_every = int(full_every)
        self._base: Optional[Checkpoint] = None
        self._deltas: List[CheckpointDelta] = []
        self._last_active: Optional[np.ndarray] = None
        self._force_full = False
        self.saves = 0
        self.delta_saves = 0
        self.restores = 0
        self.total_checkpoint_ms = 0.0

    # -- schedule ----------------------------------------------------------

    def due(self, iteration: int) -> bool:
        """Checkpoint boundaries: iteration 0 and every ``interval`` after."""
        return iteration % self.interval == 0

    # -- persistence -------------------------------------------------------

    def snapshot_cost_ms(self, cells: int) -> float:
        return self.fixed_ms + self.ms_per_cell * int(cells)

    def save(self, iteration: int, values: np.ndarray, active: np.ndarray,
             changed: Optional[Union[np.ndarray, list]] = None) -> float:
        """Snapshot ``(values, active)``; returns the simulated cost.

        ``changed`` — vertex ids (or a boolean mask) touched since the
        previous save.  When given and a full base exists, only those
        rows are stored as a delta, and the cost is charged on the cells
        actually written.  ``changed=None`` (the original API) always
        takes a full snapshot.
        """
        ids = self._normalize_changed(changed, values)
        width = values.shape[1] if values.ndim > 1 else 1
        use_delta = (
            ids is not None
            and self._base is not None
            and not self._force_full
            and len(self._deltas) < self.full_every
            and ids.size * width < values.size
        )
        if use_delta:
            cost = self.snapshot_cost_ms(ids.size * width)
            flips = np.nonzero(active != self._last_active)[0]
            self._deltas.append(CheckpointDelta(
                iteration=int(iteration),
                ids=np.array(ids, copy=True),
                rows=np.array(values[ids], copy=True),
                active_flips=flips.astype(np.int64),
                cost_ms=cost,
            ))
            self.delta_saves += 1
        else:
            cost = self.snapshot_cost_ms(values.size)
            self._base = Checkpoint(
                iteration=int(iteration),
                values=np.array(values, copy=True),
                active=np.array(active, copy=True),
                cost_ms=cost,
            )
            self._deltas = []
            self._force_full = False
        self._last_active = np.array(active, copy=True)
        self.saves += 1
        self.total_checkpoint_ms += cost
        return cost

    @staticmethod
    def _normalize_changed(changed, values) -> Optional[np.ndarray]:
        if changed is None:
            return None
        arr = np.asarray(changed)
        if arr.dtype == bool:
            ids = np.nonzero(arr)[0]
        else:
            ids = distinct_ids(arr.astype(np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= values.shape[0]):
            raise CheckpointError(
                f"changed ids out of range [0, {values.shape[0]})"
            )
        return ids

    @property
    def latest(self) -> Optional[Checkpoint]:
        """The newest *full* snapshot (None before the first save)."""
        return self._base

    @property
    def latest_iteration(self) -> Optional[int]:
        """The superstep the newest save (full or delta) captures."""
        if self._deltas:
            return self._deltas[-1].iteration
        return self._base.iteration if self._base is not None else None

    def peek(self) -> Optional[Checkpoint]:
        """The newest saved state, reconstructed without side effects.

        Like :meth:`restore` but free: no restore is counted, no cost
        is modeled (``cost_ms`` is 0) and the next save is *not* forced
        full — the engine's run is not perturbed.  This is what the
        serving layer uses to externalize a job's resume point after a
        failure or into a durable journal.  Returns ``None`` before the
        first save.
        """
        return self._rebuild(0.0) if self._base is not None else None

    def seed(self, iteration: int, values: np.ndarray,
             active: np.ndarray) -> None:
        """Install pre-existing state as the base full snapshot, free.

        A resumed run (``run_stepwise(..., resume_from=ckpt)``) starts
        from state that is *already durable* — it was read back from a
        checkpoint — so the store begins life holding it as the full
        base, at zero simulated cost and without counting a save.  A
        mid-run rollback can then restore to the resume point even
        before the resumed run's first own checkpoint falls due.
        """
        if self._base is not None or self._deltas:
            raise CheckpointError("seed on a non-empty checkpoint store")
        self._base = Checkpoint(
            iteration=int(iteration),
            values=np.array(values, copy=True),
            active=np.array(active, copy=True),
            cost_ms=0.0,
        )
        self._last_active = np.array(active, copy=True)

    def restore(self) -> Checkpoint:
        """The newest saved state plus its (charged) read-back cost.

        Reconstructs the last full snapshot with every delta replayed on
        top — bit-for-bit the state passed to the newest :meth:`save`.
        The returned arrays are fresh copies; restoring twice yields two
        independent states.  ``cost_ms`` on the returned object is the
        *restore* cost: the full base read-back plus every delta's cells.
        The next save after a restore is forced full (the change chain's
        continuity cannot be assumed across a rollback).
        """
        if self._base is None:
            raise CheckpointError("restore before any checkpoint was saved")
        self.restores += 1
        self._force_full = True
        cells = (self._base.cells
                 + sum(delta.cells for delta in self._deltas))
        return self._rebuild(self.snapshot_cost_ms(cells))

    def _rebuild(self, cost_ms: float) -> Checkpoint:
        """The last full snapshot with every delta replayed on top, in
        fresh arrays."""
        base = self._base
        values = np.array(base.values, copy=True)
        active = np.array(base.active, copy=True)
        iteration = base.iteration
        for delta in self._deltas:
            values[delta.ids] = delta.rows
            active[delta.active_flips] = ~active[delta.active_flips]
            iteration = delta.iteration
        return Checkpoint(iteration=iteration, values=values,
                          active=active, cost_ms=cost_ms)
