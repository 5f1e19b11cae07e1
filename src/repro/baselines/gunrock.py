"""Gunrock-like baseline: single-node, single-GPU graph system [4].

Gunrock keeps the whole graph resident on one GPU and runs frontier-
centric kernels with essentially no host involvement, which makes it the
fastest system in the paper's single-GPU comparison (Fig. 9(a)) — and
makes it overflow on Twitter/UK-2007, whose data "cannot be accommodated
by a single GPU" (Fig. 9(b)).
"""

from __future__ import annotations

from typing import Optional

from ..accel import make_gpu
from ..accel.costmodel import BYTES_PER_EDGE, BYTES_PER_VERTEX
from ..algorithms import MultiSourceSSSP  # noqa: F401 (doc example)
from ..core.template import AlgorithmTemplate
from ..errors import DeviceMemoryError
from ..graph.graph import Graph
from .common import BaselineResult, run_global_loop

#: host->device staging cost of the initial bulk graph load (ms per byte)
H2D_MS_PER_BYTE = 0.0000002

#: Gunrock's hand-tuned kernels beat the general-purpose daemon kernels
#: on a single device by roughly this factor.
KERNEL_EFFICIENCY = 0.75


class GunrockSystem:
    """Single-GPU in-memory graph processor."""

    name = "gunrock"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.gpu = make_gpu()
        self._footprint = graph.memory_footprint(BYTES_PER_EDGE,
                                                 BYTES_PER_VERTEX)

    def fits(self) -> bool:
        """Can the whole graph live in device memory?"""
        return self._footprint <= self.gpu.model.memory_bytes

    def run(self, algorithm: AlgorithmTemplate,
            max_iterations: Optional[int] = None) -> BaselineResult:
        """Raises :class:`DeviceMemoryError` when the graph cannot fit
        (the paper's 'Gunrock gets overflowed' case)."""
        self.gpu.ensure_capacity(self._footprint)
        setup = self.gpu.init() + self._footprint * H2D_MS_PER_BYTE
        model = self.gpu.model

        def iteration_cost(active_edges: int, changed: int) -> float:
            # everything stays on the device: one fused kernel per round
            return (model.call_ms
                    + active_edges * model.compute_ms_per_entity
                    * KERNEL_EFFICIENCY)

        result = run_global_loop(algorithm, self.graph, max_iterations,
                                 iteration_cost)
        result.total_ms += setup
        result.system = self.name
        return result
