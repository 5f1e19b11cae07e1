"""JobSpec validation, wire decoding, and the cache-params contract."""

import pytest

from repro.algorithms import KCore, MultiSourceSSSP
from repro.errors import ServeError
from repro.serve import JobSpec
from repro.serve.cache import params_fingerprint
from repro.serve.job import Job


def test_unknown_algorithm_and_engine_rejected():
    with pytest.raises(ServeError, match="unknown algorithm"):
        JobSpec(graph="g", algorithm="pagerankk")
    with pytest.raises(ServeError, match="unknown engine"):
        JobSpec(graph="g", engine="spark")
    with pytest.raises(ServeError, match="priority"):
        JobSpec(graph="g", priority=0)


def test_build_algorithm_converts_lists_to_tuples():
    spec = JobSpec(graph="g", algorithm="sssp-bf",
                   params={"sources": [0, 1, 2]})
    algo = spec.build_algorithm()
    assert isinstance(algo, MultiSourceSSSP)
    assert list(algo.sources) == [0, 1, 2]


def test_build_algorithm_passes_scalars():
    algo = JobSpec(graph="g", algorithm="kcore",
                   params={"k": 4}).build_algorithm()
    assert isinstance(algo, KCore)
    assert algo.k == 4


def test_bad_params_raise_serve_error():
    with pytest.raises(ServeError, match="bad params"):
        JobSpec(graph="g", algorithm="pagerank",
                params={"bogus": 1}).build_algorithm()


def test_cache_params_cover_engine_and_iteration_cap():
    base = JobSpec(graph="g", max_iterations=5)
    other_engine = JobSpec(graph="g", max_iterations=5, engine="graphx")
    other_cap = JobSpec(graph="g", max_iterations=9)
    fp = params_fingerprint
    assert fp(base.cache_params()) != fp(other_engine.cache_params())
    assert fp(base.cache_params()) != fp(other_cap.cache_params())
    # but tenant/priority/runtime never change the answer -> same key
    alias = JobSpec(graph="g", max_iterations=5, tenant="x", priority=7)
    assert fp(base.cache_params()) == fp(alias.cache_params())


def test_from_dict_roundtrip_and_defaults():
    spec = JobSpec.from_dict({"graph": "g"})
    assert spec.algorithm == "pagerank" and spec.engine == "powergraph"
    assert spec.tenant == "default" and spec.use_cache

    spec = JobSpec.from_dict({
        "graph": "g", "algorithm": "sssp-bf",
        "params": {"sources": [0, 1]}, "tenant": "alice",
        "priority": 2, "max_iterations": 6, "use_cache": False,
        "preset": "resilient",
        "fault": {"kind": "crash", "superstep": 2, "node": 1,
                  "repeat": 3}})
    assert spec.priority == 2 and not spec.use_cache
    assert spec.runtime.fault_plan is not None


def test_from_dict_rejects_unknown_keys_and_missing_graph():
    with pytest.raises(ServeError, match="unknown job keys"):
        JobSpec.from_dict({"graph": "g", "colour": "red"})
    with pytest.raises(ServeError, match="'graph'"):
        JobSpec.from_dict({"algorithm": "pagerank"})


def test_job_latency_properties():
    job = Job(1, JobSpec(graph="g"), submitted_ms=10.0)
    assert job.latency_ms is None and job.queue_ms is None
    assert not job.finished and job.values is None
    job.started_ms = 15.0
    job.finished_ms = 40.0
    assert job.queue_ms == 5.0 and job.latency_ms == 30.0
    doc = job.describe()
    assert doc["tenant"] == "default" and doc["latency_ms"] == 30.0


def test_deadline_and_retry_fields_validate_eagerly():
    for bad in (0, -1.0, True, "soon"):
        with pytest.raises(ServeError, match="deadline_ms"):
            JobSpec(graph="g", deadline_ms=bad)
    for bad in (-1, True, 1.5, "two"):
        with pytest.raises(ServeError, match="max_retries"):
            JobSpec(graph="g", max_retries=bad)
    for bad in (-0.5, True, "fast"):
        with pytest.raises(ServeError, match="retry_backoff_ms"):
            JobSpec(graph="g", retry_backoff_ms=bad)
    # the happy path keeps them verbatim
    spec = JobSpec(graph="g", deadline_ms=250.0, max_retries=3,
                   retry_backoff_ms=0.0)
    assert spec.deadline_ms == 250.0 and spec.max_retries == 3
    assert spec.retry_backoff_ms == 0.0


def test_from_dict_accepts_deadline_and_retry_keys():
    spec = JobSpec.from_dict({"graph": "g", "deadline_ms": 90.0,
                              "max_retries": 2,
                              "retry_backoff_ms": 5.0})
    assert spec.deadline_ms == 90.0
    assert spec.max_retries == 2 and spec.retry_backoff_ms == 5.0
    with pytest.raises(ServeError, match="deadline_ms"):
        JobSpec.from_dict({"graph": "g", "deadline_ms": -3})


def test_to_doc_from_doc_roundtrip_is_lossless():
    spec = JobSpec.from_dict({
        "graph": "g", "algorithm": "sssp-bf",
        "params": {"sources": [0, 1]}, "tenant": "alice",
        "priority": 2, "max_iterations": 6, "use_cache": False,
        "deadline_ms": 400.0, "max_retries": 2,
        "retry_backoff_ms": 7.5, "preset": "resilient",
        "fault": {"kind": "crash", "superstep": 2, "node": 1,
                  "repeat": 3}})
    back = JobSpec.from_doc(spec.to_doc())
    assert back == spec
    # the resolved runtime survives, fault plan included
    assert back.runtime == spec.runtime
    assert back.runtime.fault_plan is not None
    # and the doc is JSON-clean (journal lines are json.dumps'd)
    import json
    assert JobSpec.from_doc(
        json.loads(json.dumps(spec.to_doc()))) == spec


def test_from_doc_reads_journals_written_before_fields_were_retired():
    """A journal outlives the code that wrote it: PR <= 14 journals carry
    ``validate`` / ``batch_events`` in every submitted spec's runtime,
    PR <= 23 journals ``balance``; replay must drop retired fields, not
    fail the recover."""
    spec = JobSpec.from_dict({"graph": "g", "preset": "resilient"})
    doc = spec.to_doc()
    doc["runtime"].update(validate=False, batch_events=True, balance=True)
    assert JobSpec.from_doc(doc) == spec
