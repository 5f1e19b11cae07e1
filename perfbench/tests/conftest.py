"""Shared fixtures: every workload run once untraced and once traced in
``--quick`` mode, in this process, with outputs under a temp dir."""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.__main__ import run_one  # noqa: E402
from perfbench.spec import load_manifest  # noqa: E402

SEED = 3


@pytest.fixture(scope="session")
def manifest():
    return load_manifest()


@pytest.fixture(scope="session")
def quick_runs(manifest, tmp_path_factory):
    """``{(workload, trace): (result, metrics.json, out_dir)}``."""
    base = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for trace in (False, True):
        for workload in manifest.workloads:
            out = str(base / f"{workload}-seed{SEED}-t{int(trace)}")
            result = run_one(workload, SEED, float(manifest.run_seconds),
                             trace, True, out)
            with open(os.path.join(out, "metrics.json"),
                      encoding="utf-8") as fh:
                runs[(workload, trace)] = (result, json.load(fh), out)
    return runs
