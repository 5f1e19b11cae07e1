"""Comparator systems for the Fig. 9 evaluation.

Simulated stand-ins for the paper's baselines: Gunrock (single-node
single-GPU) and Lux (multi-node multi-GPU), sharing the same real
computation kernels as the rest of the library but with their own cost
and memory models.
"""

from .common import (
    BaselineResult,
    global_iteration,
    run_global_loop,
)
from .gunrock import GunrockSystem
from .lux import LuxSystem, distributed_gpu_fit_bytes, distributed_gpu_fits

__all__ = [
    "BaselineResult",
    "GunrockSystem",
    "LuxSystem",
    "global_iteration",
    "run_global_loop",
    "distributed_gpu_fits",
    "distributed_gpu_fit_bytes",
]
