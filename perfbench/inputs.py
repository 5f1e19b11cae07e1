"""Seed-derived inputs: graphs, query catalogues, draws, mutation batches.

Everything a workload feeds the program is generated here; the program
sees only the generated inputs.  The same seed gives the same inputs,
and :func:`digest` turns any of them into the SHA-256 the run records.

What ``--seed`` draws is the *data*: edge weights and the edges each
mutation batch touches.  The *shape* of a workload — the R-MAT
topology, the source vertices, which catalogue entry holds which
popularity rank, the sequence of ranks the clients ask for — is a
constant of the benchmark (:data:`SHAPE_SEED`).  Cost here follows
shape far more than data: a second R-MAT instance or another draw of
sources shifts superstep counts, eviction work and the result-cache hit
ratio by 10-25 % (one GraphX sssp-bf job costs 0.19 s or 0.43 s
depending on which partition its sources fall in), which would bury the
few-percent differences the end-to-end bounds are there to catch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .spec import CAPS

#: seeds everything that fixes a workload's shape (see module doc)
SHAPE_SEED = 2022

ENGINES = ("powergraph", "graphx")
BATCH_ALGORITHMS = ("pagerank", "sssp-bf", "cc")


def derive(seed: int, *labels: Any) -> int:
    """A 63-bit child seed, stable across processes and platforms."""
    text = json.dumps([seed, *labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big") >> 1


def digest(obj: Any) -> str:
    """SHA-256 of a JSON-able object or a numpy array."""
    h = hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()


def make_graph(seed: int, key: str, vertices: int, edges: int):
    """The graph for ``key``: the benchmark's R-MAT topology carrying
    ``seed``'s edge weights.  The launcher subprocess calls this with
    the same arguments and gets the same graph."""
    from repro.api import Graph
    from repro.graph.generators import rmat
    shape = rmat(vertices, edges, seed=derive(SHAPE_SEED, "graph", key),
                 name=key)
    weights = np.random.default_rng(derive(seed, "weights", key)).uniform(
        1.0, 10.0, shape.num_edges)
    # src is already sorted, so from_edges keeps the edge order
    return Graph.from_edges(vertices, shape.src, shape.dst, weights,
                            name=key)


def hubs(graph, count: int, label: str) -> List[int]:
    """``count`` distinct source vertices among the 64 highest
    out-degrees (so traversals reach the giant component); part of the
    workload's shape."""
    top = np.argsort(-graph.out_degrees(), kind="stable")[:64]
    rng = np.random.default_rng(derive(SHAPE_SEED, "hubs", label))
    return sorted(int(v) for v in rng.choice(top, count, replace=False))


@dataclass(frozen=True)
class Query:
    """One submittable computation; ``spec()`` is its wire form."""

    graph: str
    engine: str
    algorithm: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def qid(self) -> str:
        return digest([self.graph, self.engine, self.algorithm,
                       list(self.params)])[:12]

    @property
    def cap(self) -> int:
        return CAPS[self.algorithm]

    def spec(self, *, tenant: str = "t0", use_cache: bool = True):
        from repro.api import JobSpec
        return JobSpec(graph=self.graph, algorithm=self.algorithm,
                       params={k: list(v) if isinstance(v, tuple) else v
                               for k, v in self.params},
                       engine=self.engine, tenant=tenant,
                       max_iterations=self.cap, use_cache=use_cache)

    def doc(self) -> List[Any]:
        return [self.graph, self.engine, self.algorithm,
                [[k, list(v) if isinstance(v, tuple) else v]
                 for k, v in self.params]]


def batch_jobs(graph) -> List[Query]:
    """The batch grid: {powergraph, graphx} x {pagerank, sssp-bf, cc}."""
    sources = tuple(hubs(graph, 4, "batch"))
    params = {"pagerank": (), "cc": (),
              "sssp-bf": (("sources", sources),)}
    return [Query(graph.name, engine, algorithm, params[algorithm])
            for engine in ENGINES for algorithm in BATCH_ALGORITHMS]


def catalogue(graphs: Dict[str, Any]) -> List[Query]:
    """The serve-read catalogue: per (graph, engine) one pagerank, one
    cc, four bfs sources and six sssp-bf source sets (1, 1, 2, 2, 4, 4
    sources) — 12 variants, so two graphs give 48 entries."""
    out: List[Query] = []
    for key in sorted(graphs):
        pool = hubs(graphs[key], 16, key)
        variants: List[Tuple[str, Tuple]] = [("pagerank", ()), ("cc", ())]
        variants += [("bfs", (("source", s),)) for s in pool[:4]]
        at = 4
        for width in (1, 1, 2, 2, 4, 4):
            variants.append(
                ("sssp-bf", (("sources", tuple(pool[at:at + width])),)))
            at += width
        for engine in ENGINES:
            out += [Query(key, engine, a, p) for a, p in variants]
    return out


def standing_set(graph) -> List[Query]:
    """The six queries serve-churn keeps fresh: one contraction
    fixpoint, four frontier warm-starters, one always-cold bfs."""
    s = hubs(graph, 7, "standing")
    key = graph.name
    return [
        Query(key, "powergraph", "pagerank"),
        Query(key, "powergraph", "cc"),
        Query(key, "graphx", "cc"),
        Query(key, "powergraph", "sssp-bf", (("sources", tuple(s[:4])),)),
        Query(key, "graphx", "sssp-bf", (("sources", tuple(s[4:6])),)),
        Query(key, "graphx", "bfs", (("source", s[6]),)),
    ]


def zipf_draws(entries: int, exponent: float, client: int) -> Iterator[int]:
    """An endless Zipf(``exponent``) stream of catalogue indices for one
    client.  Which entry holds which popularity rank, and the ranks
    asked for, are workload shape: the same for every seed."""
    ranks = np.arange(1, entries + 1, dtype=np.float64)
    p = ranks ** -exponent
    p /= p.sum()
    order = np.random.default_rng(derive(SHAPE_SEED, "zipf-order")
                                  ).permutation(entries)
    rng = np.random.default_rng(derive(SHAPE_SEED, "zipf", client))
    while True:
        for rank in rng.choice(entries, size=256, p=p):
            yield int(order[rank])


#: serve-churn's batch kinds by cycle: 60 % monotone adds, 20 % weight
#: decreases, 20 % removals (the last refuses every frontier warm start)
CHURN_KINDS = ("add", "add", "decrease", "add", "remove")


def churn_batch(graph, seed: int, cycle: int, churn: float):
    """The ``cycle``-th mutation batch against the current ``graph``:
    ``churn`` x |E| edits of the kind :data:`CHURN_KINDS` assigns."""
    from repro.api import MutationBatch
    kind = CHURN_KINDS[cycle % len(CHURN_KINDS)]
    rng = np.random.default_rng(derive(seed, "churn", cycle))
    count = max(1, int(churn * graph.num_edges))
    n = graph.num_vertices
    if kind == "add":
        return kind, MutationBatch(
            add_src=rng.integers(0, n, count),
            add_dst=rng.integers(0, n, count),
            add_weights=rng.uniform(1.0, 10.0, count))
    # existing (src, dst) pairs; an edit touches every parallel copy,
    # so a decrease must undercut the lightest copy to stay monotone
    keys = graph.src * np.int64(n) + graph.dst
    uniq, inverse = np.unique(keys, return_inverse=True)
    picked = rng.choice(uniq.size, min(count, uniq.size), replace=False)
    src, dst = uniq[picked] // n, uniq[picked] % n
    if kind == "remove":
        return kind, MutationBatch(remove_src=src, remove_dst=dst)
    lightest = np.full(uniq.size, np.inf)
    np.minimum.at(lightest, inverse, graph.weights)
    return kind, MutationBatch(update_src=src, update_dst=dst,
                               update_weights=0.5 * lightest[picked])


def schedule_doc(queries: Sequence[Query], **extra: Any) -> Dict[str, Any]:
    """The JSON form of an operation schedule, for its digest."""
    return dict(extra, queries=[q.doc() for q in queries])
