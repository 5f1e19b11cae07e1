"""Partition deltas against fresh partitions, over random mutation batches.

A mutation carries each memoized partition of the old version forward
(``GraphStore.mutate``): surviving edges keep their node, added edges
land on their source's master, new vertices join round-robin.  A query
on the new version then runs on that carried placement, not on the
one a fresh partitioner would draw for the same graph.  The twin is a
fresh service loading the mutated graph.  Every job bypasses the result
cache, so no warm start is harvested and the placement is the only
difference:

* cc, sssp-bf and bfs (min-combining fixpoints) end bit-identical;
* PageRank sums in another per-node order, so it agrees to round-off.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import JobSpec

from .test_warm_differential import mutated, served

EXACT = ("cc", "sssp-bf", "bfs")
#: PageRank round-off between two placements of one graph
PAGERANK_RTOL = 1e-12


@settings(max_examples=12, deadline=None)
@given(case=mutated(), engine=st.sampled_from(["powergraph", "graphx"]))
def test_a_partition_delta_computes_what_a_fresh_partition_does(case, engine):
    graph, batch = case
    assume(not batch.is_empty)
    specs = [JobSpec(graph="g", algorithm=name, engine=engine,
                     use_cache=False,
                     max_iterations=20 if name == "pagerank" else None)
             for name in EXACT + ("pagerank",)]
    svc, delta = served(graph, specs, batch)
    stats = svc.store.stats()
    # one partition, built on version 1 and carried to version 2
    assert (stats["partition_builds"], stats["partition_deltas"]) == (1, 1)
    _, fresh = served(svc.store.get("g").graph, specs)
    for d, f in zip(delta, fresh):
        assert not d.warm_started
        if d.spec.algorithm in EXACT:
            assert d.values.tobytes() == f.values.tobytes(), d.spec.algorithm
        else:
            np.testing.assert_allclose(d.values, f.values,
                                       rtol=PAGERANK_RTOL, atol=0.0)
