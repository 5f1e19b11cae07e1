"""Scaled-down twins of the paper's Table I datasets.

The paper evaluates on six real graphs (Orkut, Wiki-topcats, LiveJournal,
WRN, Twitter, UK-2007-02).  We cannot ship those graphs, so each is
replaced by a deterministic synthetic twin at 1/1000 scale that preserves
the properties the experiments depend on:

* the |E|/|V| ratio (which sets per-node workload — the paper notes "the
  workload of a distributed node is proportional to the number of edges
  stored in it");
* the degree-distribution family (power-law for social/web graphs via
  R-MAT, near-uniform sparse grid for the road network);
* the relative ordering of sizes (Twitter and UK-2007 are the two graphs
  that overflow a single simulated GPU, reproducing Fig. 9(b)).

``load_dataset(name)`` returns the twin — built on the first call, the
same read-only :class:`Graph` afterwards; ``DATASETS`` holds the
metadata (including the paper's original sizes) used by the Table I
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

from ..errors import GraphError
from .graph import Graph
from .generators import clustered_communities, rmat, road_network, uniform_random

SCALE = 1000  # paper sizes are divided by this factor


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one Table I dataset and its synthetic twin."""

    name: str
    paper_vertices: int     # original |V| from Table I
    paper_edges: int        # original |E| from Table I
    kind: str               # "Social", "Network", or "Road" per Table I
    builder: Callable[["DatasetSpec"], Graph]

    @property
    def scaled_vertices(self) -> int:
        return max(64, self.paper_vertices // SCALE)

    @property
    def scaled_edges(self) -> int:
        return max(256, self.paper_edges // SCALE)

    @property
    def average_degree(self) -> float:
        return self.paper_edges / self.paper_vertices

    def build(self) -> Graph:
        return self.builder(self)


def _social(spec: DatasetSpec) -> Graph:
    """Power-law twin: R-MAT with strong skew and community structure."""
    return rmat(spec.scaled_vertices, spec.scaled_edges,
                seed=_seed_for(spec.name), name=spec.name)


def _network(spec: DatasetSpec) -> Graph:
    """Web-style hyperlink network: slightly milder skew than social."""
    return rmat(spec.scaled_vertices, spec.scaled_edges,
                a=0.45, b=0.22, c=0.22, seed=_seed_for(spec.name),
                name=spec.name)


def _road(spec: DatasetSpec) -> Graph:
    """Road-network twin: grid with |E| ≈ 1.2 |V|."""
    side = max(8, int(spec.scaled_vertices ** 0.5))
    return road_network(side, side, seed=_seed_for(spec.name), name=spec.name)


def _seed_for(name: str) -> int:
    return sum(ord(ch) for ch in name)


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec("orkut", 3_072_441, 117_185_083, "Social", _social),
        DatasetSpec("wiki-topcats", 1_791_489, 28_511_807, "Network", _network),
        DatasetSpec("livejournal", 4_847_571, 68_993_773, "Social", _social),
        DatasetSpec("wrn", 23_947_347, 28_854_312, "Road", _road),
        DatasetSpec("twitter", 41_652_230, 1_468_365_182, "Social", _social),
        DatasetSpec("uk-2007-02", 110_123_614, 3_944_932_566, "Social", _social),
    ]
}

DEFAULT_DATASET = "orkut"  # the paper's default: highest average degree


def dataset_names() -> List[str]:
    """Names in Table I order."""
    return list(DATASETS)


@lru_cache(maxsize=None)
def load_dataset(name: str) -> Graph:
    """The deterministic synthetic twin of a Table I dataset.

    Twins are pure functions of their name and a :class:`Graph` is
    immutable, so each is built once per process and shared; its arrays
    are read-only to keep it that way.  ``DATASETS[name].build()``
    still builds a private copy.
    """
    if name not in DATASETS:
        raise GraphError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        )
    graph = DATASETS[name].build()
    for arr in (graph.indptr, graph.src, graph.dst, graph.weights):
        arr.flags.writeable = False
    return graph


def load_synthetic_uniform(num_vertices: int = 3000, num_edges: int = 120_000,
                           seed: int = 7) -> Graph:
    """The paper's Fig. 11 'synthetic dataset': uniform random graph."""
    return uniform_random(num_vertices, num_edges, seed=seed, name="synthetic")


def load_synthetic_clustered(num_communities: int = 16,
                             community_size: int = 200,
                             seed: int = 7) -> Graph:
    """A strongly clustered graph (the regime where sync skipping shines)."""
    return clustered_communities(num_communities, community_size, seed=seed,
                                 name="clustered")
