"""The serving process loads no figure harness and no CLI.

A served deployment imports ``repro.api`` and ``repro.serve.wire`` (as
``perfbench/server_main.py`` does); ``repro.bench``'s package init loads
every figure runner, and ``repro.cli`` loads the figure registry, so
either one showing up there is start-up time a server never uses.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def test_serving_imports_load_no_bench_or_cli_module():
    probe = ("import sys, repro.api, repro.serve.wire\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[:2] in "
             "(['repro', 'bench'], ['repro', 'cli'])))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert out.split() == []
