"""Distributed nodes and host runtimes.

A :class:`DistributedNode` is one machine/instance of the upper system.
Its :class:`HostRuntime` captures the environment-dependent costs the
middleware must cross:

* ``compute`` — the host's own execution model, used when *no* accelerator
  is plugged (the "GraphX"/"PowerGraph" bars of Fig. 8);
* ``download_ms_per_entity`` / ``upload_ms_per_entity`` — the k1/k3 of the
  pipeline cost model (Eq. 2): per-triplet cost of moving data between the
  upper system and the agent.  The JVM runtime's are higher because data
  crosses the JNI boundary (§IV-B1); the JNI transmitter and data packager
  (see :mod:`repro.engines.jni`) are what keep them only ~2-3x native
  instead of ~10x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..accel.costmodel import HOST_JVM, HOST_NATIVE, DeviceCostModel
from ..accel.device import Accelerator
from ..core.config import check_cost
from ..errors import SimulationError


@dataclass(frozen=True)
class HostRuntime:
    """Environment cost profile of an upper-system node."""

    name: str
    compute: DeviceCostModel            # host execution (no accelerator)
    download_ms_per_entity: float       # k1: upper system -> agent
    upload_ms_per_entity: float         # k3: agent -> upper system
    apply_ms_per_entity: float          # host-side apply/merge bookkeeping
    sync_fixed_ms: float                # per-iteration engine overhead

    def __post_init__(self) -> None:
        for cost in ("download_ms_per_entity", "upload_ms_per_entity",
                     "apply_ms_per_entity", "sync_fixed_ms"):
            check_cost(f"{self.name}: {cost}", getattr(self, cost),
                       error=SimulationError)


#: GraphX on Spark: JVM compute, JNI-crossing transfer costs.
#: k1/k3 assume the JNI transmitter + data packager are enabled: they
#: are repro.engines.jni's OPTIMIZED_JNI.ms_per_entity() (0.001805 ms)
#: rounded; see that module for the naive-invocation comparison.
JVM_RUNTIME = HostRuntime(
    name="jvm",
    compute=HOST_JVM,
    download_ms_per_entity=0.00180,
    upload_ms_per_entity=0.00180,
    apply_ms_per_entity=0.00080,
    sync_fixed_ms=2.0,
)

#: PowerGraph: native C++ runtime, cheaper boundary crossings.
NATIVE_RUNTIME = HostRuntime(
    name="native",
    compute=HOST_NATIVE,
    download_ms_per_entity=0.00120,
    upload_ms_per_entity=0.00120,
    apply_ms_per_entity=0.00030,
    sync_fixed_ms=0.8,
)

#: Host runtimes by name — what ``ClusterSpec.runtime`` and an engine
#: class's ``host_runtime`` are looked up in.
HOST_RUNTIMES = {rt.name: rt for rt in (NATIVE_RUNTIME, JVM_RUNTIME)}


@dataclass
class DistributedNode:
    """One upper-system node with zero or more plugged accelerators."""

    node_id: int
    runtime: HostRuntime
    accelerators: List[Accelerator] = field(default_factory=list)

    def capacity_factor(self) -> float:
        """The node's 1/c_j (§III-C): entities per ms across its devices.

        With several daemons (accelerators) on one agent the work is split
        between them, so capacities add.  A node without accelerators falls
        back to its host compute capacity.
        """
        if not self.accelerators:
            return self.runtime.compute.capacity_factor()
        return sum(a.model.capacity_factor() for a in self.accelerators)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        devs = ",".join(a.model.name for a in self.accelerators) or "none"
        return (f"DistributedNode(id={self.node_id}, "
                f"runtime={self.runtime.name}, accelerators=[{devs}])")
