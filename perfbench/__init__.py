"""perfbench — the repository's end-to-end + per-layer benchmark.

One command runs one workload, checks its outputs and prints every
metric by name with its unit::

    python3 -m perfbench run --workload serve-read --seed 7 --trace 0

The benchmark drives the system only through its public entry points
(``repro.api``, ``GraphServiceServer``, ``GraphClient``) and measures
layers from outside: a traced run wraps each layer's public functions
from this package (see :mod:`perfbench.layers`), nothing under ``src/``
knows it is being measured.  ``README.md`` in this directory has the
workload rationale, the metric catalogue and the interaction table.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, set before numpy loads (the server
# subprocess inherits it).  The benchmark runs two processes on a small
# machine; OpenBLAS's default pool spins its workers against them, and a
# 160x160 matmul then takes anywhere from 0.2 ms to 16 ms depending on
# how the hypervisor happens to schedule the vCPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: the checkout root (the directory holding ``BENCHMARK.json``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ensure_repro() -> None:
    """Make ``repro`` importable from the checkout's ``src/``.

    Entry points call this before importing anything from the program;
    in a directory without ``src/`` the import that follows fails and
    the command exits non-zero, which is the contract for a checkout
    that holds only the benchmark.
    """
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
