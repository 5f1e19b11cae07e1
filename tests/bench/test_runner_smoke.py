"""Smoke tests for the experiment runners (small parameters).

The full-size experiments live in ``benchmarks/``; these runs shrink the
sweeps so ``pytest tests/`` also exercises every runner end to end.
"""

import pytest

from repro.bench import (
    algorithm_factories,
    paper_fig15_analysis,
    run_fig9a,
    run_fig9d,
    run_fig11b,
    run_fig12a,
    run_fig13,
    run_fig14,
    run_table1,
)
from repro.bench.reporting import format_table, speedup


def test_algorithm_factories_fresh_instances():
    factories = algorithm_factories()
    assert set(factories) == {"pagerank", "sssp-bf", "lp"}
    a = factories["pagerank"][0]()
    b = factories["pagerank"][0]()
    assert a is not b
    assert len(factories["sssp-bf"][0]().sources) == 4
    assert factories["lp"][1] == 15


def test_table1_runner():
    rows = run_table1()
    assert len(rows) == 6
    for row in rows:
        assert row[1] > row[4]  # paper size > twin size


def test_fig9a_runner_small():
    rows = run_fig9a(gpu_counts=(1, 2))
    systems = {r[0] for r in rows}
    assert systems == {"gx-plug", "lux", "gunrock"}


def test_fig9d_runner():
    rows = run_fig9d()
    assert len(rows) == 5
    assert all(r[2] > 0 for r in rows)


def test_fig11b_runner():
    rows = run_fig11b(num_nodes=2)
    assert {r[0] for r in rows} == {"synthetic", "real-wrn",
                                    "real-clustered"}
    for _label, base, skipped, decrease in rows:
        assert skipped <= base
        assert decrease == pytest.approx(1 - skipped / base)


def test_fig12a_runner():
    rows = dict(run_fig12a())
    assert set(rows) == {"not-balanced", "balanced", "theoretical"}


def test_fig13_runner_param():
    rows = run_fig13(iterations=2)
    inits = {r[0]: r[2] for r in rows}
    assert inits["daemon-agent"] == 1
    assert inits["direct-call"] > 2


def test_fig14_runner_small():
    rows = run_fig14(node_counts=(1, 2), engines=("powergraph",),
                     dataset="wiki-topcats")
    assert len(rows) == 6  # 3 algorithms x 2 node counts
    assert all(0 <= r[3] <= 1 for r in rows)


def test_paper_fig15_analysis_rows():
    rows = paper_fig15_analysis()
    assert {r[0] for r in rows} == {"sssp-bf", "pagerank", "lp"}


# -- reporting helpers ----------------------------------------------------------


def test_format_table_alignment():
    text = format_table(["a", "bb"], [(1, 2.5), (None, 10000.0)],
                        title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "OOM" in text          # None renders as OOM
    assert "10,000" in text       # thousands separator
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1       # all rows aligned


def test_speedup_helper():
    assert speedup(100.0, 50.0) == 2.0
    assert speedup(100.0, 0.0) == float("inf")
