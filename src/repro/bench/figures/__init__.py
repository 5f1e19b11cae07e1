"""The experiment registry: every table, figure and soak, declared once.

One module per family holds the runners with their :class:`Figure`
entries beside them; :data:`FIGURES` is what ``repro-gxplug figure``,
``scripts/check_bit_identity.py``, ``repro.bench``'s exports and
DESIGN.md §4 are read from.  Adding an experiment is one ``Figure(...)``
entry in its family's ``FIGURES`` tuple.
"""

from . import fault, paper, serving
from .common import Figure, algorithm_factories
from .fault import *  # noqa: F401,F403
from .paper import *  # noqa: F401,F403
from .serving import *  # noqa: F401,F403

#: name -> :class:`Figure`, in ``repro-gxplug figure --help`` order.
FIGURES = {fig.name: fig
           for family in (paper, fault, serving)
           for fig in family.FIGURES}

__all__ = ["Figure", "FIGURES", "algorithm_factories",
           *paper.__all__, *fault.__all__, *serving.__all__]
