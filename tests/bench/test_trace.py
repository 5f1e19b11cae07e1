"""Tests for run telemetry export."""

import csv
import json

import pytest

from repro.algorithms import PageRank
from repro.engines.trace import (
    FIELDS,
    iteration_records,
    run_summary,
    write_csv,
    write_json,
)
from repro.cluster import make_cluster
from repro.core import GXPlug, MiddlewareConfig
from repro.engines import PowerGraphEngine
from repro.graph import rmat


@pytest.fixture(scope="module")
def result():
    g = rmat(128, 1024, seed=3)
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster)
    engine = PowerGraphEngine.build(g, cluster, middleware=plug)
    return engine.run(PageRank(), max_iterations=4)


def test_iteration_records_shape(result):
    records = iteration_records(result)
    assert len(records) == result.iterations
    for i, record in enumerate(records):
        assert record["iteration"] == i
        assert set(record) == set(FIELDS)
        assert record["total_ms"] == pytest.approx(
            record["compute_ms"] + record["apply_ms"] + record["sync_ms"]
            + record["checkpoint_ms"], abs=1e-5)
        # a fault-free run's fault telemetry is all-zero
        assert record["faults_injected"] == 0
        assert record["retries"] == 0
        assert record["recoveries"] == 0
        assert record["checkpoint_ms"] == 0


def test_run_summary_contents(result):
    summary = run_summary(result)
    assert summary["engine"] == "powergraph"
    assert summary["algorithm"] == "pagerank"
    assert summary["iterations"] == 4
    assert summary["total_ms"] > 0
    assert 0 <= summary["middleware_ratio"] <= 1
    assert "setup" in summary["breakdown"]


def test_cache_thrash_shows_in_records_and_summary(result):
    """A cache smaller than the working set is visible as evictions and
    dirty write-backs, per superstep and run-wide; an all-fitting cache
    reports none."""
    assert run_summary(result)["cache_evictions"] == 0
    g = rmat(128, 1024, seed=3)
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster, config=MiddlewareConfig(cache_capacity=12))
    engine = PowerGraphEngine.build(g, cluster, middleware=plug)
    thrashed = engine.run(PageRank(), max_iterations=4)
    records = iteration_records(thrashed)
    summary = run_summary(thrashed)
    assert summary["cache_evictions"] == sum(
        r["cache_evictions"] for r in records) > 0
    assert 0 < summary["cache_writebacks"] <= summary["cache_evictions"]
    # every eviction a pass reports happened in some agent's cache, and
    # only the write-through after the last pass is still unreported
    in_caches = sum(plug.agent_for(n).cache.evictions
                    for n in range(cluster.num_nodes))
    assert 0 < summary["cache_evictions"] <= in_caches


def test_csv_roundtrip(result, tmp_path):
    path = tmp_path / "run.csv"
    write_csv(result, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == result.iterations
    assert float(rows[0]["compute_ms"]) >= 0


def test_json_roundtrip(result, tmp_path):
    path = tmp_path / "run.json"
    write_json(result, path)
    doc = json.loads(path.read_text())
    assert doc["summary"]["iterations"] == result.iterations
    assert len(doc["iterations"]) == result.iterations
    # valid JSON end to end
    json.dumps(doc)


@pytest.fixture(scope="module")
def faulty_result():
    from repro.core import RESILIENT
    from repro.fault import CRASH, FaultPlan

    g = rmat(128, 1024, seed=3)
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster, RESILIENT.with_(
        fault_plan=FaultPlan.single(CRASH, 1)))
    engine = PowerGraphEngine.build(g, cluster, middleware=plug)
    return engine.run(PageRank(), max_iterations=4)


def test_fault_counters_recorded_and_roundtrip(faulty_result, tmp_path):
    records = iteration_records(faulty_result)
    assert sum(r["faults_injected"] for r in records) == 1
    assert sum(r["retries"] for r in records) >= 1
    assert sum(r["recoveries"] for r in records) >= 1
    assert any(r["checkpoint_ms"] > 0 for r in records)
    for record in records:
        assert set(record) == set(FIELDS)
        assert record["total_ms"] == pytest.approx(
            record["compute_ms"] + record["apply_ms"] + record["sync_ms"]
            + record["checkpoint_ms"], abs=1e-5)

    summary = run_summary(faulty_result)
    assert summary["rollbacks"] == 0
    assert summary["degraded_nodes"] == []

    # every FIELDS column survives both export formats
    jpath = tmp_path / "run.json"
    write_json(faulty_result, jpath)
    doc = json.loads(jpath.read_text())
    assert doc["iterations"] == records
    cpath = tmp_path / "run.csv"
    write_csv(faulty_result, cpath)
    with open(cpath, newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == FIELDS
    for row, record in zip(rows, records):
        for key in ("faults_injected", "retries", "recoveries"):
            assert int(row[key]) == record[key]
        assert float(row["checkpoint_ms"]) == pytest.approx(
            record["checkpoint_ms"])
