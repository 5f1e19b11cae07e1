"""What every figure family shares: the :class:`Figure` record and the
paper's engine x workload grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ...algorithms import ALGORITHMS, PAPER_WORKLOADS
from ...cluster import HOST_RUNTIMES
from ...core import GXPlug, MiddlewareConfig
from ...engines import ENGINES as ENGINE_CLASSES
from ..reporting import print_table


def print_rows(figure: "Figure", rows) -> None:
    """The default :attr:`Figure.render`: one table under the title."""
    print_table(figure.headers, rows, title=figure.title)


@dataclass(frozen=True)
class Figure:
    """One experiment of the evaluation, declared once; the CLI, the
    bit-identity oracle and ``repro.bench``'s exports read these."""

    name: str
    #: Builds the setup from scratch and returns the rows: full size by
    #: default, every keyword shrinks or redirects the sweep.
    run: Callable[..., Any]
    headers: Tuple[str, ...]
    title: str
    #: CI-sized kwargs for ``run``: the oracle's row of this name.
    quick: Mapping[str, Any]
    #: Prints what ``run`` returned (Fig. 15 is three tables, not one).
    render: Callable[["Figure", Any], None] = print_rows
    #: Further oracle rows of the same runner: row name -> kwargs.
    quick_variants: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict)

    def quick_rows(self):
        """``(row name, kwargs)`` for every CI-sized run of the figure."""
        yield self.name, self.quick
        yield from self.quick_variants.items()


#: The two upper systems the paper evaluates, in figure order, with the
#: host runtime each one's cluster nodes run.
ENGINES = {name: (ENGINE_CLASSES[name],
                  HOST_RUNTIMES[ENGINE_CLASSES[name].host_runtime])
           for name in ("graphx", "powergraph")}


def algorithm_factories() -> Dict[str, Tuple[Callable, Optional[int]]]:
    """The paper's three workloads with their iteration budgets."""
    return {name: (partial(ALGORITHMS[name], **params), cap)
            for name, (params, cap) in PAPER_WORKLOADS.items()}


def _run(engine_cls, graph, cluster, algorithm, max_iter,
         config: Optional[MiddlewareConfig] = None):
    """One engine run; ``config=None`` means host-only (no middleware)."""
    middleware = GXPlug(cluster, config) if config is not None else None
    engine = engine_cls.build(graph, cluster, middleware=middleware)
    return engine.run(algorithm, max_iterations=max_iter)
