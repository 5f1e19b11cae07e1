"""Pinned end-to-end runs: what a wall-clock PR must not move.

Every (algorithm, engine, cache) cell below runs once on one seeded
R-MAT and is compared with values recorded at an earlier commit: the
SHA-256 of the result values, ``repr`` of the simulated total, the
superstep count and the sync-cache counters.  Simulated time and values
are this reproduction's outputs; a change that is only meant to make
the Python faster leaves every one of them equal to the last bit.

The pins were taken at commit 3bc3ff8 (``np.unique``-based merges,
``intersect1d``/``setdiff1d`` cache settling, per-job partition masks).
A PR that moves them on purpose — a cost-model change — re-takes them
with ``PYTHONPATH=src python tests/engines/test_pinned_runs.py`` and
says why.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import (ConnectedComponents, LabelPropagation,
                              MultiSourceSSSP, PageRank)
from repro.api import ClusterSpec, GXPlug, MiddlewareConfig, RuntimeConfig
from repro.engines import GraphXEngine, PowerGraphEngine
from repro.graph import rmat

GRAPH = rmat(1200, 9600, seed=21)

ALGORITHMS = {
    "pagerank": lambda: (PageRank(), 5),
    "sssp-bf": lambda: (MultiSourceSSSP([0, 7, 42, 99]), None),
    "cc": lambda: (ConnectedComponents(), None),
    "lp": lambda: (LabelPropagation(), 5),
}
ENGINES = {"powergraph": PowerGraphEngine, "graphx": GraphXEngine}
CONFIGS = {
    "full": lambda: RuntimeConfig.preset("full"),
    "cache10": lambda: MiddlewareConfig(
        cache_capacity=GRAPH.num_vertices // 10),
}

# (algorithm, engine, config) ->
#   (values sha256, repr(total_ms), iterations, hits, misses, evictions)
PINS = {
    ('pagerank', 'powergraph', 'full'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '95.55072', 5, 38549, 2031, 0),
    ('pagerank', 'powergraph', 'cache10'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '98.04144000000001', 5, 2032, 9509, 12949),
    ('pagerank', 'graphx', 'full'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '88.23118000000001', 5, 38585, 870, 0),
    ('pagerank', 'graphx', 'cache10'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '89.13237999999998', 5, 7877, 3278, 6718),
    ('sssp-bf', 'powergraph', 'full'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '127.39526', 7, 31835, 2397, 0),
    ('sssp-bf', 'powergraph', 'cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '129.0683', 7, 16525, 5559, 8959),
    ('sssp-bf', 'graphx', 'full'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '133.71920000000003', 7, 54894, 4, 0),
    ('sssp-bf', 'graphx', 'cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '134.23400000000004', 7, 32413, 1195, 4354),
    ('cc', 'powergraph', 'full'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '82.2961', 4, 12696, 2136, 0),
    ('cc', 'powergraph', 'cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '83.1109', 4, 2181, 3980, 4708),
    ('cc', 'graphx', 'full'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '88.86214', 5, 19390, 870, 0),
    ('cc', 'graphx', 'cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '89.12841999999999', 5, 9141, 1411, 2565),
    ('lp', 'powergraph', 'full'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '97.58335999999998', 5, 38549, 2031, 0),
    ('lp', 'powergraph', 'cache10'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '99.99668', 5, 2833, 9259, 10581),
    ('lp', 'graphx', 'full'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '90.70468000000001', 5, 38585, 870, 0),
    ('lp', 'graphx', 'cache10'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '91.53627999999999', 5, 8032, 3101, 4382),
}


def observe(algorithm: str, engine: str, config: str):
    cluster = ClusterSpec(nodes=3, gpus_per_node=1).build()
    plug = GXPlug(cluster, CONFIGS[config]())
    alg, cap = ALGORITHMS[algorithm]()
    result = ENGINES[engine].build(GRAPH, cluster, plug).run(
        alg, max_iterations=cap)
    values = np.ascontiguousarray(result.values)
    return (hashlib.sha256(values.tobytes()).hexdigest(),
            repr(result.total_ms), result.iterations,
            sum(s.cache_hits for s in result.stats),
            sum(s.cache_misses for s in result.stats),
            result.cache_evictions)


CELLS = [(a, e, c) for a in ALGORITHMS for e in ENGINES for c in CONFIGS]


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_run_equals_its_pin(cell):
    assert observe(*cell) == PINS[cell]


def test_the_bounded_cache_cells_do_evict():
    """The cache10 column is only worth pinning if it thrashes."""
    assert all(PINS[cell][5] > 0 for cell in CELLS if cell[2] == "cache10")
    assert all(PINS[cell][5] == 0 for cell in CELLS if cell[2] == "full")


if __name__ == "__main__":
    for cell in CELLS:
        print(f"    {cell!r}: {observe(*cell)!r},")
