"""Pipeline-shuffle cost model and optimal block size (§III-A).

The 3-stage pipeline (Download / Compute / Upload) over ``s`` equal blocks
of size ``b = d/s`` has the makespan of the paper's Equation 1::

    T_total = T_n(b) + max(T_n, T_c)
            + (s - 2) * max(T_n, T_c, T_u)
            + max(T_c, T_u) + T_u

with stage times ``T_n = k1 b``, ``T_c = a + k2 b``, ``T_u = k3 b``
(Eq. 2).  :func:`lemma1_optimal` is the paper's closed-form optimum;
:func:`choose_block_size` is the production selector that also handles the
integer constraint the paper notes ("both s and b must be integers") by
evaluating Eq. 1 at the rounded candidates.

:func:`pipeline_makespan_from_stage_times` computes the makespan of the
rotation-synchronized pipeline for *arbitrary* per-block stage durations;
the unit tests verify it coincides with Eq. 1 for uniform blocks, and the
daemon-agent mechanism (Algorithms 1-2 on the simulated scheduler) is in
turn validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import MiddlewareError
from .config import check_cost


@dataclass(frozen=True)
class PipelineCoefficients:
    """The (k1, k2, k3, a) of Eq. 2.

    k1 — download ms per entity (Thread.Download)
    k2 — compute + device-copy ms per entity (Thread.Compute slope)
    k3 — upload ms per entity (Thread.Upload)
    a  — fixed device call overhead per block (T_call)
    """

    k1: float
    k2: float
    k3: float
    a: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            check_cost(name, getattr(self, name), positive=True)
        check_cost("call overhead a", self.a)

    # -- stage times -----------------------------------------------------------

    def t_n(self, b: float) -> float:
        return self.k1 * b

    def t_c(self, b: float) -> float:
        return self.a + self.k2 * b

    def t_u(self, b: float) -> float:
        return self.k3 * b

    # -- Equation 1 ---------------------------------------------------------------

    def total_time(self, d: int, s: int) -> float:
        """Pipeline makespan for ``d`` entities in ``s`` equal blocks.

        Uses real-valued ``b = d/s`` exactly as the paper's analysis does.
        ``s == 1`` degenerates to the unpipelined sum of the three stages.
        """
        if d < 0:
            raise MiddlewareError(f"negative entity count {d}")
        if s < 1:
            raise MiddlewareError(f"need >=1 blocks, got {s}")
        if d == 0:
            return 0.0
        b = d / s
        tn, tc, tu = self.t_n(b), self.t_c(b), self.t_u(b)
        if s == 1:
            return tn + tc + tu
        return (tn + max(tn, tc)
                + (s - 2) * max(tn, tc, tu)
                + max(tc, tu) + tu)

    def sequential_time(self, d: int, s: int) -> float:
        """The 5-step tightly coupled flow (no pipeline, Fig. 10 baseline).

        Every block passes download -> compute -> upload with no overlap,
        so the makespan is simply the sum of all stage times.
        """
        if d < 0:
            raise MiddlewareError(f"negative entity count {d}")
        if s < 1:
            raise MiddlewareError(f"need >=1 blocks, got {s}")
        if d == 0:
            return 0.0
        b = d / s
        return s * (self.t_n(b) + self.t_c(b) + self.t_u(b))

    # -- Lemma 1 --------------------------------------------------------------------

    def lemma1_optimal(self, d: int) -> Tuple[float, float]:
        """The paper's closed-form ``(b_opt, T_total_min)`` (Lemma 1).

        Continuous analysis: ignores the integrality of s and b.
        """
        if d <= 0:
            raise MiddlewareError(f"need d > 0, got {d}")
        k1, k2, k3, a = self.k1, self.k2, self.k3, self.a
        q = math.sqrt(a * d / (k1 + k3)) if a > 0 else 0.0
        k_max = max(k1, k2, k3)
        if a == 0:
            # no fixed call cost: nothing penalizes small blocks, so the
            # balanced point degenerates to b -> 0; report b = 1.
            return 1.0, self.total_time(d, d)
        if k1 == k_max and k1 > k2:
            b_corner = a / (k1 - k2)
            if b_corner < q:
                t = k1 * d + (k1 + k3) * a / (k1 - k2)
                return b_corner, t
        if k3 == k_max and k3 > k2:
            b_corner = a / (k3 - k2)
            if b_corner < q:
                t = k3 * d + (k1 + k3) * a / (k3 - k2)
                return b_corner, t
        t = k2 * d + 2.0 * math.sqrt((k1 + k3) * a * d)
        return q, t

    def choose_num_blocks(self, d: int) -> int:
        """Integer block count minimizing Eq. 1 (the "Pipeline*" setting).

        Evaluates Eq. 1 at the floor/ceil of the Lemma-1 ``s_opt`` (and a
        small neighbourhood, since the max() kinks make the discrete curve
        only piecewise unimodal) plus the corners s=1 and s=d.
        """
        if d <= 0:
            raise MiddlewareError(f"need d > 0, got {d}")
        b_opt, _ = self.lemma1_optimal(d)
        candidates = {1, d}
        if b_opt >= 1e-12:
            s_opt = d / b_opt
            base = {math.floor(s_opt), math.ceil(s_opt),
                    math.floor(d / max(math.floor(b_opt), 1)),
                    math.floor(d / max(math.ceil(b_opt), 1))}
            for s in base:
                for ds in range(-2, 3):
                    candidates.add(s + ds)
        best_s, best_t = 1, float("inf")
        for s in sorted(c for c in candidates if 1 <= c <= d):
            t = self.total_time(d, s)
            if t < best_t - 1e-12:
                best_s, best_t = s, t
        return best_s

    def choose_block_size(self, d: int) -> int:
        """Integer block size b = ceil(d / s_opt) for the optimal s."""
        s = self.choose_num_blocks(d)
        return max(1, math.ceil(d / s))

    def brute_force_best(self, d: int, max_s: int = 10_000
                         ) -> Tuple[int, float]:
        """Exhaustive integer search over s (tests / small d only)."""
        if d <= 0:
            raise MiddlewareError(f"need d > 0, got {d}")
        best_s, best_t = 1, float("inf")
        for s in range(1, min(d, max_s) + 1):
            t = self.total_time(d, s)
            if t < best_t - 1e-12:
                best_s, best_t = s, t
        return best_s, best_t


def pipeline_makespan_from_stage_times(
        times_n: Sequence[float], times_c: Sequence[float],
        times_u: Sequence[float]) -> float:
    """Makespan of the rotation-synchronized 3-stage pipeline.

    Blocks advance in lockstep: a rotation happens when *all three*
    threads have finished their current block (the ExchangeFinished /
    RotateFinished handshake of Algorithms 1-2).  Stage ``i`` of the
    pipeline runs block ``i`` while stage two runs block ``i-1`` and stage
    three runs block ``i-2``; the cycle time is the max of the three
    active stage durations.
    """
    s = len(times_n)
    if len(times_c) != s or len(times_u) != s:
        raise MiddlewareError("stage time sequences must have equal length")
    if s == 0:
        return 0.0
    total = 0.0
    # cycles run from 0 to s+1 inclusive; in cycle t the downloader works
    # on block t, the computer on block t-1, the uploader on block t-2.
    for cycle in range(s + 2):
        dur = 0.0
        if cycle < s:
            dur = max(dur, times_n[cycle])
        if 0 <= cycle - 1 < s:
            dur = max(dur, times_c[cycle - 1])
        if 0 <= cycle - 2 < s:
            dur = max(dur, times_u[cycle - 2])
        total += dur
    return total


#: The measured coefficient sets of the paper's Fig. 15 experiment
#: (footnote 6) — used verbatim by the Fig. 15 bench.
PAPER_FIG15_COEFFICIENTS = {
    "sssp-bf": PipelineCoefficients(k1=0.03, k2=0.51, k3=0.09, a=84671.0),
    "pagerank": PipelineCoefficients(k1=0.02, k2=0.58, k3=0.1, a=1970.0),
    "lp": PipelineCoefficients(k1=0.003, k2=0.59, k3=0.006, a=498.0),
}
