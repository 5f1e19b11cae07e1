"""Lux-like baseline: multi-node multi-GPU graph system [19].

Lux "focuses on exploiting GPU internal mechanisms" (fast device kernels)
but, per the paper's related-work discussion, "without the support of
mature distributed systems ... falls short in ... efficient data
synchronization": every iteration pays a full mirror exchange whose
volume is untrimmed by anything like GX-Plug's synchronization caching,
lazy uploading or skipping.  That is why Lux wins at 1-2 GPUs but loses
ground as GPUs (and synchronization pressure) grow — the crossover of
Fig. 9(a) — and why GX-Plug is ~40% faster on Twitter with 4 GPUs
(Fig. 9(b)).
"""

from __future__ import annotations

import math
from typing import Optional

from ..cluster.topology import Topology
from ..accel.costmodel import BYTES_PER_VERTEX, V100
from ..core.config import check_count
from ..core.template import AlgorithmTemplate
from ..errors import DeviceMemoryError, SimulationError
from ..graph.graph import Graph
from .common import BaselineResult, run_global_loop

#: Lux's hand-tuned GPU kernels are a bit faster than general daemons.
KERNEL_EFFICIENCY = 0.85

#: per-GPU coordination cost per iteration (task launch, fences)
COORD_MS_PER_GPU = 3.0

#: per GPU *pair* handshake cost per iteration (all-to-all channels)
PAIR_MS = 3.0

#: bytes per uncombined message cell crossing GPUs: the 8-byte value
#: plus routing metadata (destination id, edge tag) that per-destination
#: combining would have amortized away
BYTES_PER_VALUE_CELL = 14

#: distributed systems pack partitioned edges compactly (int32 pair) —
#: half the staging representation a single-GPU system keeps resident
DIST_BYTES_PER_EDGE = 8


def distributed_gpu_fit_bytes(graph: Graph, num_gpus: int) -> int:
    """Per-GPU working set of an eager multi-GPU system.

    Edges split evenly (compact representation); every GPU also keeps a
    full vertex mirror table plus per-peer all-to-all staging buffers that
    grow quadratically with the GPU count — the memory model behind the
    paper's "no result for using 4 GPUs on UK-2007, for all methods"
    (Fig. 9(b)).
    """
    check_count("num_gpus", num_gpus, 1, error=SimulationError)
    edge_bytes = graph.num_edges * DIST_BYTES_PER_EDGE // num_gpus
    mirror_bytes = graph.num_vertices * BYTES_PER_VERTEX
    buffer_bytes = int(mirror_bytes * 2.0 * (num_gpus - 1) ** 2)
    return edge_bytes + mirror_bytes + buffer_bytes


def distributed_gpu_fits(graph: Graph, num_gpus: int,
                         memory_bytes: int = V100.memory_bytes) -> bool:
    """Does the per-GPU working set fit device memory?"""
    return distributed_gpu_fit_bytes(graph, num_gpus) <= memory_bytes


class LuxSystem:
    """Multi-GPU distributed graph processor with eager synchronization."""

    name = "lux"

    def __init__(self, graph: Graph, num_gpus: int) -> None:
        check_count("num_gpus", num_gpus, 1, error=SimulationError)
        self.graph = graph
        self.num_gpus = num_gpus
        # the GPUs exchange over one uniform rack
        self.topology = Topology([range(num_gpus)])
        self._per_gpu_bytes = distributed_gpu_fit_bytes(graph, num_gpus)

    def fits(self) -> bool:
        return self._per_gpu_bytes <= V100.memory_bytes

    def run(self, algorithm: AlgorithmTemplate,
            max_iterations: Optional[int] = None) -> BaselineResult:
        if not self.fits():
            raise DeviceMemoryError(
                f"lux: per-GPU working set {self._per_gpu_bytes} B exceeds "
                f"{V100.memory_bytes} B with {self.num_gpus} GPUs"
            )
        g = self.num_gpus
        setup = V100.init_ms + self._per_gpu_bytes * 0.0000002

        state_width = getattr(algorithm, "sources", None)
        width = len(state_width) if state_width else 1

        def iteration_cost(active_edges: int, changed: int) -> float:
            per_gpu_edges = math.ceil(active_edges / g)
            compute = (V100.call_ms
                       + per_gpu_edges * V100.compute_ms_per_entity
                       * KERNEL_EFFICIENCY)
            # eager, combiner-less push: every active cut edge carries its
            # raw message to the destination GPU (GX-Plug instead merges
            # per destination before anything crosses nodes), and there is
            # no caching / laziness / skipping to trim the exchange
            cut_edges = active_edges * (g - 1) / g
            payload = int(cut_edges * width * BYTES_PER_VALUE_CELL)
            sync = self.topology.sync_ms(g, payload) if g > 1 else 0.0
            coord = COORD_MS_PER_GPU * g + PAIR_MS * g * (g - 1) / 2.0
            return compute + sync + coord

        result = run_global_loop(algorithm, self.graph, max_iterations,
                                 iteration_cost)
        result.total_ms += setup
        result.system = self.name
        return result
