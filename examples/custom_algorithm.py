#!/usr/bin/env python
"""Writing a new algorithm on the GX-Plug template.

The paper's promise: "one can design a graph algorithm by implementing
the 3 interfaces of the algorithm template" — MSGGen, MSGMerge and
MSGApply — and the middleware handles devices, pipelining, caching and
synchronization.

Those three methods plus ``init_state`` are the whole algorithm below;
combining partials across nodes and sizing pipeline blocks are template
defaults derived from them.

This example implements *k-hop reach counting from a seed set* (how many
of the seeds can reach each vertex within the iteration budget), a
primitive used in influence estimation, and runs it distributed on GPUs
without touching any middleware internals.
"""

from typing import Tuple

import numpy as np

from repro.api import (AlgorithmState, AlgorithmTemplate, ClusterSpec,
                       Graph, GXPlug, MessageSet, PowerGraphEngine,
                       load_dataset, scatter_reduce)


class SeedReachability(AlgorithmTemplate):
    """Bitmask propagation: value = set of seeds that can reach a vertex.

    Messages are integer bitmasks over the seed set; MSGMerge ORs them
    (bitwise OR is associative, commutative and idempotent — exactly
    what merging partials across nodes requires).
    """

    name = "seed-reach"
    default_max_iterations = 8
    monotone = True   # OR only adds bits: safe for combined local iters

    def __init__(self, seeds) -> None:
        self.seeds = [int(s) for s in seeds]

    def init_state(self, graph: Graph, **params) -> AlgorithmState:
        n = graph.num_vertices
        values = np.zeros(n)
        for bit, seed in enumerate(self.seeds):
            values[seed] = float(int(values[seed]) | (1 << bit))
        active = np.zeros(n, dtype=bool)
        active[self.seeds] = True
        return AlgorithmState(values, active)

    # --- the three paper APIs -------------------------------------------

    def msg_gen(self, src_ids, dst_ids, weights, values) -> np.ndarray:
        return values[src_ids][:, None]

    def msg_merge(self, dst_ids, messages) -> MessageSet:
        # one reduction per destination: the template's scatter_reduce,
        # here over integers (values travel as float64 bitmasks)
        merged = scatter_reduce(dst_ids, messages.astype(np.int64),
                                np.bitwise_or, 0)
        return MessageSet(merged.ids, merged.data.astype(np.float64))

    def msg_apply(self, values, merged) -> Tuple[np.ndarray, np.ndarray]:
        new_values = values.copy()
        if merged.size == 0:
            return new_values, np.empty(0, dtype=np.int64)
        old = new_values[merged.ids].astype(np.int64)
        incoming = merged.data[:, 0].astype(np.int64)
        updated = old | incoming
        changed = merged.ids[updated != old]
        new_values[merged.ids] = updated.astype(np.float64)
        return new_values, changed

    # --- reference for verification --------------------------------------

    def reference(self, graph: Graph, iterations: int = 8) -> np.ndarray:
        values = self.init_state(graph).values
        for _ in range(iterations):
            msgs = self.msg_gen(graph.src, graph.dst, graph.weights,
                                values)
            merged = self.msg_merge(graph.dst, msgs)
            values, changed = self.msg_apply(values, merged)
            if changed.size == 0:
                break
        return values


def main() -> None:
    graph = load_dataset("wiki-topcats")
    seeds = [0, 7, 42, 99, 512]
    print(f"Seed-reachability over {graph}, seeds={seeds}\n")

    cluster = ClusterSpec(nodes=4, gpus_per_node=1).build()
    plug = GXPlug(cluster)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    alg = SeedReachability(seeds)
    result = engine.run(alg)
    print(result.summary())

    # distributed result equals the single-machine reference
    expected = SeedReachability(seeds).reference(graph)
    assert np.array_equal(result.values, expected)

    counts = np.array([bin(int(v)).count("1") for v in result.values])
    for k in range(len(seeds), 0, -1):
        n_k = int((counts >= k).sum())
        print(f"vertices reachable from >= {k} seeds within "
              f"{alg.default_max_iterations} hops: {n_k}")


if __name__ == "__main__":
    main()
