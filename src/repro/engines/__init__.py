"""Upper systems: GraphX-like (BSP/JVM) and PowerGraph-like (GAS/native)."""

from .async_engine import AsyncEngine
from .base import IterationStats, IterativeEngine, RunResult, StepEvent
from .graphx import GraphXEngine
from .jni import (
    NAIVE_JNI,
    OPTIMIZED_JNI,
    JNIConfig,
    improvement_factor,
)
from .powergraph import PowerGraphEngine

#: Every upper system by wire name; keys are each class's ``name``, and
#: each class states the ``host_runtime`` its nodes run (§IV-B1).
ENGINES = {cls.name: cls for cls in (
    PowerGraphEngine, GraphXEngine, AsyncEngine)}

__all__ = [
    "ENGINES",
    "IterativeEngine",
    "IterationStats",
    "RunResult",
    "StepEvent",
    "GraphXEngine",
    "PowerGraphEngine",
    "AsyncEngine",
    "JNIConfig",
    "NAIVE_JNI",
    "OPTIMIZED_JNI",
    "improvement_factor",
]
