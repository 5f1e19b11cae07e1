"""Workload balancing: estimation model and Lemmas 2-3 (§III-C).

The middleware models a node's iteration time as ``T_j = c_j d_j +
s T_call`` where ``c_j`` is the per-entity processing coefficient and
``1/c_j`` the *computation capacity factor*.  Two tuning cases:

* **Case 1 — tune partition sizes** for fixed capacities (Lemma 2):
  ``d_j* = (1/c_j) / Σ(1/c) · D`` equalizes ``c_j d_j`` across nodes.
* **Case 2 — tune capacities** for fixed partitions (Lemma 3): given the
  per-node maximum available capacity factor ``f``, set
  ``1/c_j = f d_j / d*`` where ``d* = max d_j``.

Both optima are verified against brute-force minimization in the tests.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import math

import numpy as np

from ..errors import MiddlewareError
from ..cluster.node import DistributedNode, HostRuntime
from .config import check_cost


def makespan(sizes: Sequence[float], coefficients: Sequence[float]) -> float:
    """The balancing objective G = max_j c_j d_j (Eq. 5)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if sizes.shape != coeffs.shape:
        raise MiddlewareError(
            f"{sizes.size} sizes vs {coeffs.size} coefficients"
        )
    if sizes.size == 0:
        raise MiddlewareError("need at least one node")
    return float(np.max(coeffs * sizes))


def optimal_partition_sizes(total: float,
                            coefficients: Sequence[float]) -> np.ndarray:
    """Lemma 2: d_j proportional to capacity factors 1/c_j.

    Returns real-valued sizes summing to ``total``; the caller rounds them
    into partition ``shares``.
    """
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if coeffs.size == 0:
        raise MiddlewareError("need at least one node")
    if (coeffs <= 0).any():
        raise MiddlewareError("coefficients must be positive")
    check_cost("total workload", total)
    inv = 1.0 / coeffs
    return inv / inv.sum() * total


def optimal_makespan(total: float,
                     coefficients: Sequence[float]) -> float:
    """Lemma 2's optimum value: D / Σ(1/c_j)."""
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if (coeffs <= 0).any():
        raise MiddlewareError("coefficients must be positive")
    return float(total / (1.0 / coeffs).sum())


def balancing_factors(coefficients: Sequence[float]) -> np.ndarray:
    """The paper's balancing factors (1/c_j) / Σ(1/c_j) — usable directly
    as partitioner ``shares``."""
    coeffs = np.asarray(coefficients, dtype=np.float64)
    if (coeffs <= 0).any():
        raise MiddlewareError("coefficients must be positive")
    inv = 1.0 / coeffs
    return inv / inv.sum()


def optimal_capacity_factors(sizes: Sequence[float],
                             max_factor: float) -> np.ndarray:
    """Lemma 3: 1/c_j = f · d_j / d* for fixed partition sizes.

    ``max_factor`` is the largest capacity factor a node may be given
    (e.g. the full GPU pool of the cloud).  The returned factors give
    every node the same finish time d*/f while using the least capacity.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        raise MiddlewareError("need at least one node")
    if (sizes < 0).any():
        raise MiddlewareError("sizes must be non-negative")
    check_cost("max capacity factor", max_factor, positive=True)
    d_star = sizes.max()
    if d_star == 0:
        return np.zeros_like(sizes)
    return max_factor * sizes / d_star


def accelerators_for_load(sizes: Sequence[float], max_factor: float,
                          unit_factor: float) -> List[int]:
    """Case-2 deployment helper: GPUs per node for balanced finish times.

    Rounds Lemma 3's ideal capacity factors up to whole accelerators of
    capacity ``unit_factor`` (e.g. one V100), as the middleware does when
    it "dynamically allocate[s] idle accelerators to generate more daemons
    for the node demanding computation powers".
    """
    check_cost("unit capacity factor", unit_factor, positive=True)
    ideal = optimal_capacity_factors(sizes, max_factor)
    return [max(1, int(math.ceil(f / unit_factor - 1e-9))) if f > 0 else 0
            for f in ideal]


def node_coefficient(runtime: HostRuntime,
                     accelerators: Sequence) -> float:
    """Estimate a node's c_j (ms per entity) from its device models.

    Per §III-C, T_total^j = (T_n + T_c + T_u) so the coefficient is the
    sum of the per-entity download, compute and upload slopes.  With
    several daemons on one agent the compute slope shrinks by their summed
    capacity.
    """
    k1 = runtime.download_ms_per_entity
    k3 = runtime.upload_ms_per_entity
    if accelerators:
        capacity = sum(a.model.capacity_factor() for a in accelerators)
        k2 = 1.0 / capacity
    else:
        k2 = runtime.compute.per_entity_ms
    return k1 + k2 + k3


def cluster_coefficients(nodes: Sequence[DistributedNode]) -> List[float]:
    """Per-node c_j estimates for a cluster (inputs to Lemma 2)."""
    return [node_coefficient(n.runtime, n.accelerators) for n in nodes]


def degraded_coefficients(nodes: Sequence[DistributedNode],
                          degraded: Sequence[int]) -> List[float]:
    """Per-node c_j after some nodes fell back to their host path.

    A degraded node's accelerators are written off for the rest of the
    job, so its coefficient is the bare host-compute one; healthy nodes
    keep their accelerated estimate.  Feeding these into
    :func:`balancing_factors` gives the Lemma-2 shares the engine uses
    to repartition at rollback time — the degraded node's partition
    shrinks in proportion to the capacity it lost.
    """
    down = set(int(n) for n in degraded)
    return [node_coefficient(
                n.runtime, [] if n.node_id in down else n.accelerators)
            for n in nodes]


def rebalanced_shares(nodes: Sequence[DistributedNode],
                      degraded: Sequence[int]) -> np.ndarray:
    """Lemma-2 partition shares for a partially degraded cluster."""
    return balancing_factors(degraded_coefficients(nodes, degraded))


def network_coefficients(topology, bytes_per_entity: float) -> np.ndarray:
    """Per-node *network* cost slopes (ms per entity) over a topology.

    The §III-C model prices only compute: ``T_j = c_j d_j``.  With a
    rack topology each node's sync bytes also cross its uplink path at
    that path's per-byte rate, which is just another per-entity slope —
    additive with the compute coefficient, so Lemma 2 applies unchanged
    to the sum.  ``bytes_per_entity`` converts entities to wire bytes
    (the engine derives it from the vertex width and the graph's
    edge/vertex ratio).
    """
    bytes_per_entity = check_cost("bytes_per_entity", bytes_per_entity)
    return np.array([topology.path_ms_per_byte(j) * bytes_per_entity
                     for j in range(topology.num_nodes)],
                    dtype=np.float64)


def link_adjusted_coefficients(compute: Sequence[float],
                               network: Sequence[float],
                               inflations: Sequence[float]) -> np.ndarray:
    """Fold observed link inflation into Lemma-2 inputs.

    ``c_eff_j = compute_j + inflation_j * network_j`` — a link running
    ``k``x slow makes its node's wire slope ``k``x steeper, so
    :func:`balancing_factors` shrinks that node's share exactly the way
    it shrinks a slow daemon's.  ``inflations`` should be 1.0 for
    healthy links (the detector's per-link EWMA for flagged ones).
    """
    comp = np.asarray(compute, dtype=np.float64)
    net = np.asarray(network, dtype=np.float64)
    infl = np.asarray(inflations, dtype=np.float64)
    if not comp.shape == net.shape == infl.shape:
        raise MiddlewareError(
            f"shape mismatch: {comp.size} compute vs {net.size} network "
            f"vs {infl.size} inflation entries")
    if not (comp > 0).all():  # NaN included
        raise MiddlewareError("coefficients must be positive")
    if not (net >= 0).all():
        raise MiddlewareError("network coefficients must be >= 0")
    if (infl < 1.0 - 1e-12).any():
        raise MiddlewareError("link inflations must be >= 1")
    return comp + infl * net


def estimate_coefficients(observations, prior: Sequence[float],
                          alpha: float = 0.5) -> np.ndarray:
    """Online re-estimation of the Lemma-2 inputs from observed times.

    The §III-C model assumes the ``c_j`` are known and stationary; a
    gray failure violates exactly that.  ``observations`` maps node
    index -> ``(entities, elapsed_ms)`` for one superstep's edge pass,
    ``prior`` is the current per-node estimate (start it from
    :func:`cluster_coefficients`).  Each observed node moves its
    estimate an EWMA step toward the empirical ``elapsed/entities``;
    unobserved nodes keep the prior.  Returns a fresh array — feed it
    into :func:`balancing_factors` to see where the optimal shares have
    drifted.
    """
    est = np.asarray(prior, dtype=np.float64).copy()
    if est.size == 0:
        raise MiddlewareError("need at least one node")
    if not (est > 0).all():  # NaN included
        raise MiddlewareError("coefficients must be positive")
    if not 0.0 < alpha <= 1.0:
        raise MiddlewareError(f"alpha must be in (0, 1], got {alpha}")
    for node, (entities, elapsed_ms) in observations.items():
        node = int(node)
        if not 0 <= node < est.size:
            raise MiddlewareError(
                f"observation for unknown node {node} "
                f"({est.size} node(s))"
            )
        if entities <= 0 or elapsed_ms <= 0:
            continue  # an idle pass says nothing about the coefficient
        c_obs = float(elapsed_ms) / float(entities)
        est[node] = (1.0 - alpha) * est[node] + alpha * c_obs
    return est
