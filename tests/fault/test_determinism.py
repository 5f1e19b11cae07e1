"""Determinism regression: the same fault seed replays bit-for-bit.

The whole simulator contract is that a seeded campaign is a pure
function of its inputs: two CLI runs with identical flags must emit
byte-identical trace JSON — values, simulated times, fault counters,
recovery bookkeeping, everything.  One representative kind per fault
family (daemon-edge crash, network drop, gray slowdown) keeps the
regression cheap while covering all three injection paths.
"""

import json

import pytest

from repro.cli import main


def _trace(tmp_path, name, kind, seed=11, extra=()):
    path = tmp_path / name
    rc = main(["run", "--dataset", "wiki-topcats", "--nodes", "2",
               "--gpus", "2", "--max-iterations", "4",
               "--fault-seed", str(seed), "--fault-rate", "0.5",
               "--fault-kinds", kind,
               *extra,
               "--trace-json", str(path)])
    assert rc == 0
    return path


@pytest.mark.parametrize("kind", ["crash", "net_drop", "slowdown"])
def test_same_seed_same_trace_bytes(tmp_path, capsys, kind):
    first = _trace(tmp_path, "a.json", kind)
    second = _trace(tmp_path, "b.json", kind)
    capsys.readouterr()
    # the campaign actually injected something, else this proves nothing
    doc = json.loads(first.read_text())
    assert doc["fault_campaign"]["events"] >= 1
    assert first.read_bytes() == second.read_bytes()


def test_topology_link_slow_trace_bytes(tmp_path, capsys):
    """Link gray-faults over a rack topology replay bit-for-bit too,
    and the resolved ClusterSpec is recorded in the trace."""
    extra = ("--topology", "rack:2x1")
    first = _trace(tmp_path, "a.json", "link_slow", extra=extra)
    second = _trace(tmp_path, "b.json", "link_slow", extra=extra)
    capsys.readouterr()
    doc = json.loads(first.read_text())
    assert doc["fault_campaign"]["events"] >= 1
    assert doc["summary"]["link_slow_ms"] > 0
    assert doc["summary"]["cluster_spec"]["topology"] == "rack:2x1"
    assert first.read_bytes() == second.read_bytes()


def test_different_seeds_draw_different_campaigns(tmp_path, capsys):
    first = _trace(tmp_path, "a.json", "crash", seed=11)
    second = _trace(tmp_path, "b.json", "crash", seed=12)
    capsys.readouterr()
    a, b = (json.loads(p.read_text()) for p in (first, second))
    assert a["fault_campaign"]["seed"] != b["fault_campaign"]["seed"]
