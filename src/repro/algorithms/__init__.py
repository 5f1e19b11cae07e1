"""Graph algorithms implemented on the GX-Plug algorithm template.

The paper's evaluation workloads — multi-source Bellman-Ford SSSP,
PageRank and Label Propagation — plus two extension algorithms (BFS and
connected components) demonstrating that "existing distributed graph
algorithms can be transplanted ... with ease".
"""

from .sssp import MultiSourceSSSP
from .pagerank import PageRank
from .label_propagation import LabelPropagation
from .bfs import BFS
from .connected_components import ConnectedComponents
from .kcore import KCore
from .widest_path import WidestPath


#: Every algorithm by wire name — the one table the CLI, the serving
#: layer and the benches look names up in; keys are each class's ``name``.
ALGORITHMS = {cls.name: cls for cls in (
    PageRank, MultiSourceSSSP, LabelPropagation, BFS,
    ConnectedComponents, KCore, WidestPath)}

#: The three workloads of §V-A in figure order: wire name ->
#: (paper-default parameters, the figures' iteration budget).  SSSP-BF
#: uses 4 simultaneous sources and runs to convergence.
PAPER_WORKLOADS = {
    "pagerank": ({}, 10),
    "sssp-bf": ({"sources": (0, 1, 2, 3)}, None),
    "lp": ({}, 15),
}


def paper_workloads():
    """Fresh instances of §V-A's workloads, paper-default parameters."""
    return {name: ALGORITHMS[name](**params)
            for name, (params, _cap) in PAPER_WORKLOADS.items()}


__all__ = [
    "MultiSourceSSSP",
    "PageRank",
    "LabelPropagation",
    "BFS",
    "ConnectedComponents",
    "KCore",
    "WidestPath",
    "ALGORITHMS",
    "PAPER_WORKLOADS",
    "paper_workloads",
]
