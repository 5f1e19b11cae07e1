"""Shared machinery for the baseline systems (Gunrock-like, Lux-like)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.template import AlgorithmTemplate
from ..graph.graph import Graph


@dataclass
class BaselineResult:
    """Outcome of a baseline system run."""

    values: np.ndarray
    iterations: int
    total_ms: float
    converged: bool
    system: str
    iteration_ms: List[float] = field(default_factory=list)


def global_iteration(algorithm: AlgorithmTemplate, graph: Graph,
                     values: np.ndarray, active: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One synchronous iteration over the whole graph.

    Returns ``(new_values, changed_ids, active_edge_count, message_count)``.
    """
    sel = active[graph.src]
    src = graph.src[sel]
    dst = graph.dst[sel]
    w = graph.weights[sel]
    if src.size == 0:
        return values, np.empty(0, dtype=np.int64), 0, 0
    msgs = algorithm.msg_gen(src, dst, w, values)
    merged = algorithm.msg_merge(dst, msgs)
    new_values, changed = algorithm.msg_apply(values, merged)
    return new_values, changed, int(src.size), merged.size


def run_global_loop(algorithm: AlgorithmTemplate, graph: Graph,
                    max_iterations: Optional[int],
                    iteration_cost) -> BaselineResult:
    """Drive the synchronous loop, charging ``iteration_cost`` per round.

    ``iteration_cost(active_edges, changed_count)`` returns simulated ms.
    """
    state = algorithm.init_state(graph)
    values, active = state.values, state.active
    cap = max_iterations if max_iterations is not None \
        else algorithm.default_max_iterations
    total = 0.0
    per_iter: List[float] = []
    converged = False
    iteration = 0
    while iteration < cap:
        values, changed, d, _n_msgs = global_iteration(
            algorithm, graph, values, active)
        cost = iteration_cost(d, int(changed.size))
        total += cost
        per_iter.append(cost)
        active = algorithm.next_active(graph, changed, graph.num_vertices)
        iteration += 1
        if algorithm.is_converged(int(changed.size), iteration):
            converged = True
            break
    return BaselineResult(values, iteration, total, converged,
                          system="baseline", iteration_ms=per_iter)
