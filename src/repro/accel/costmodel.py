"""Device cost models.

The paper's analysis treats devices through a small set of linear
coefficients (Eq. 2): a fixed per-kernel-call overhead ``a`` (T_call) and
per-entity compute/copy costs (T_comp, T_copy).  A
:class:`DeviceCostModel` is exactly that parameterization plus the two
properties the evaluation depends on: parallel *width* (20-thread CPU vs
1024-thread GPU accelerator abstraction, §V-A) and memory capacity (the
Fig. 9(b) OOM behaviour).

All times are simulated milliseconds; all sizes are simulated bytes.  The
scaled datasets are ~1/1000 of the paper's graphs, so memory capacities are
scaled by the same factor (a "16 GB" V100 becomes 16 MB simulated).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.config import check_cost, check_count
from ..errors import DeviceError

BYTES_PER_EDGE = 16    # edge triplet entry: src, dst, weight, attribute
BYTES_PER_VERTEX = 8   # vertex attribute entry


@dataclass(frozen=True)
class DeviceCostModel:
    """Linear cost model of one computation device.

    Parameters
    ----------
    name:
        Human-readable device family ("v100", "xeon-accel", "host-jvm"...).
    init_ms:
        One-time device/context initialization cost.  Paid once per daemon
        under runtime isolation (§IV-C), once per *call* without it (Fig 13).
    call_ms:
        Fixed cost of invoking a kernel — the ``a``/``T_call`` of Eq. 2.
    compute_ms_per_entity:
        Per edge-triplet compute time (``T_comp`` slope).  Already reflects
        the device's parallel width: wider devices have smaller slopes.
    copy_ms_per_entity:
        Per-entity host<->device staging time (``T_copy`` slope).
    threads:
        Parallel width of the multithread processing model (§V-A: CPU
        accelerator = 20, GPU accelerator = 1024).
    memory_bytes:
        Device memory capacity for working-set admission checks.
    """

    name: str
    init_ms: float
    call_ms: float
    compute_ms_per_entity: float
    copy_ms_per_entity: float
    threads: int
    memory_bytes: int

    def __post_init__(self) -> None:
        for cost in ("init_ms", "call_ms", "compute_ms_per_entity",
                     "copy_ms_per_entity"):
            check_cost(f"{self.name}: {cost}", getattr(self, cost),
                       error=DeviceError)
        check_count(f"{self.name}: threads", self.threads, 1,
                    error=DeviceError)
        check_count(f"{self.name}: memory_bytes", self.memory_bytes, 0,
                    error=DeviceError)

    @property
    def per_entity_ms(self) -> float:
        """Combined per-entity slope (compute + copy) — the paper's k2."""
        return self.compute_ms_per_entity + self.copy_ms_per_entity

    def kernel_ms(self, num_entities: int) -> float:
        """T_c(b) = T_call + T_comp(b) + T_copy(b)  (Eq. 2)."""
        if num_entities < 0:
            raise DeviceError(f"negative entity count {num_entities}")
        return self.call_ms + num_entities * self.per_entity_ms

    def capacity_factor(self) -> float:
        """The paper's 1/c_j: entities processed per unit time (§III-C)."""
        return 1.0 / self.per_entity_ms

    def scaled(self, factor: float, name: str = "") -> "DeviceCostModel":
        """A device ``factor`` times faster (per-entity costs divided)."""
        check_cost("scale factor", factor, positive=True, error=DeviceError)
        return replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            compute_ms_per_entity=self.compute_ms_per_entity / factor,
            copy_ms_per_entity=self.copy_ms_per_entity / factor,
        )


# -- presets ------------------------------------------------------------------
#
# Calibrated so the figure benches reproduce the paper's *shapes*:
# GPU+engine up to ~7-25x over host compute, CPU accelerator ~4-10x,
# Twitter/UK-2007 twins overflow a single GPU (Fig 9(b)), and device init
# dominates naive per-call integration (Fig 13).

#: NVIDIA V100 stand-in: 1024-thread model, 20 MB simulated memory
#: (16 GB scaled by roughly the dataset scale factor; slightly above
#: 16 MB so the Fig. 9(b) fit/overflow boundary lands where the paper's
#: does: Orkut fits one GPU, Twitter/UK-2007 do not, and UK-2007 stops
#: fitting the *distributed* systems at 4 GPUs).
V100 = DeviceCostModel(
    name="v100",
    init_ms=50.0,
    call_ms=0.6,
    compute_ms_per_entity=0.00050,
    copy_ms_per_entity=0.00010,
    threads=1024,
    memory_bytes=20_000_000,
)

#: 20-core Xeon E5-2698 v4 used *as an accelerator* (20-thread model).
XEON_ACCEL = DeviceCostModel(
    name="xeon-accel",
    init_ms=8.0,
    call_ms=0.25,
    compute_ms_per_entity=0.00240,
    copy_ms_per_entity=0.00010,
    threads=20,
    memory_bytes=256_000_000,
)

#: Host execution inside PowerGraph's native C++ runtime (no accelerator).
HOST_NATIVE = DeviceCostModel(
    name="host-native",
    init_ms=0.0,
    call_ms=0.05,
    compute_ms_per_entity=0.01200,
    copy_ms_per_entity=0.0,
    threads=1,
    memory_bytes=1_000_000_000,
)

#: Host execution inside GraphX's JVM runtime: slower per entity
#: (boxing, serialization, GC) — this is what makes middleware gains
#: larger on GraphX than on PowerGraph in Fig 8 / Fig 11(a).
HOST_JVM = DeviceCostModel(
    name="host-jvm",
    init_ms=0.0,
    call_ms=0.15,
    compute_ms_per_entity=0.02000,
    copy_ms_per_entity=0.0,
    threads=1,
    memory_bytes=1_000_000_000,
)

PRESETS = {
    "v100": V100,
    "xeon-accel": XEON_ACCEL,
    "host-native": HOST_NATIVE,
    "host-jvm": HOST_JVM,
}
