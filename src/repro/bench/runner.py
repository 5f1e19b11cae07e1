"""Old home of the experiment runners: every name re-exported from
:mod:`repro.bench.figures`, where the bodies now live."""

from .figures import *  # noqa: F401,F403
from .figures.common import ENGINES  # noqa: F401
