"""The serving layer's one grouped read: ``GraphService.metrics()``.

Each owner keeps its event counts in one ``counts`` mapping built from
its ``COUNTS`` names, and its read spreads that mapping.  The keys
below are the published surface — ``metrics()``, the wire ``stats``
frame, ``client_stats()`` and ``serve --json`` — and must not move.
"""

import contextlib
import io
import json

import pytest

from repro.api import ClusterSpec, GraphService, JobSpec
from repro.cli import main
from repro.serve import (AdmissionControl, GraphClient, GraphServiceServer,
                         GraphStore, JobQueue, ResultCache)

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)

METRICS = {"now_ms", "jobs", "queue", "cache", "coalesced", "handoffs",
           "retries", "draining", "deduped_submits", "mutations",
           "deduped_mutations", "skipped_mutations", "warm_starts",
           "recovered_jobs", "resumed_from_checkpoint", "recovery",
           "store", "tenants", "latency"}
GROUPS = {
    "queue": {"pending", "deferrals", "rejections", "sheds",
              "shed_reasons", "last_defer_reason"},
    "cache": {"entries", "capacity", "hits", "misses", "hit_rate",
              "evictions", "invalidations", "spilled", "reloads"},
    "store": {"graphs", "total_bytes", "retained_bytes",
              "retained_versions", "pinned_snapshots", "mutations",
              "snapshots", "partitions", "partition_hits",
              "partition_builds", "partition_deltas"},
    "recovery": {"recovered", "requeued", "resumed", "handoffs"},
    "latency": {"p50", "p99", "count"},
}
WIRE = {"connections_accepted", "connections_closed", "sessions_opened",
        "sessions_resumed", "sessions_reaped", "frames_in", "frames_out",
        "bad_frames", "deduped_submits", "sheds_sent", "watch_events",
        "sessions_live", "connections_live", "protocol_version",
        "draining"}
CLIENT = {"reconnects", "retried_ops", "rehellos", "sheds_seen",
          "timeouts", "last_backoff_schedule"}
SERVE_JSON = {"ok", "failed_jobs", "shed", "jobs", "metrics", "recovery"}


def assert_metrics_keys(metrics):
    assert set(metrics) == METRICS
    for group, keys in GROUPS.items():
        assert set(metrics[group]) == keys, group


@pytest.fixture
def crashed(tmp_path):
    """A journal left by a service killed with one job done and one
    in flight."""
    jpath = str(tmp_path / "svc.jsonl")
    svc = GraphService(SPEC, journal=jpath)
    svc.load_graph("g", dataset="wrn")
    assert_metrics_keys(svc.metrics())
    svc.submit(JobSpec(graph="g", algorithm="pagerank", max_iterations=4))
    svc.run()
    svc.submit(JobSpec(graph="g", algorithm="cc", max_iterations=20,
                       use_cache=False))
    for _ in range(3):
        svc.step()
    return jpath


def test_fresh_and_recovered_metrics_keep_their_keys(crashed):
    fresh = GraphService(SPEC)
    assert_metrics_keys(fresh.metrics())
    assert fresh.metrics()["recovery"] == {
        "recovered": 0, "requeued": 0, "resumed": 0, "handoffs": 0}
    rec = GraphService.recover(crashed)
    metrics = rec.metrics()
    assert_metrics_keys(metrics)
    assert metrics["recovery"]["recovered"] == 2
    assert metrics["recovery"]["requeued"] == metrics["recovered_jobs"] == 1
    assert (metrics["recovery"]["resumed"]
            == metrics["resumed_from_checkpoint"])


def test_stats_frame_and_client_stats_keep_their_keys(crashed):
    rec = GraphService.recover(crashed)
    server = GraphServiceServer(rec)
    thread = server.serve_in_thread()
    try:
        with GraphClient(*server.address, jitter_seed=1) as client:
            stats = client.stats()
            assert set(client.client_stats()) == CLIENT
    finally:
        server.crash()
        thread.join(timeout=10)
    assert set(stats) == {"metrics", "recovery", "wire"}
    assert_metrics_keys(stats["metrics"])
    # the frame carries the one recovery block, not a second assembly
    assert stats["recovery"] == stats["metrics"]["recovery"]
    assert stats["recovery"]["recovered"] == 2
    assert set(stats["wire"]) == WIRE
    assert set(server.wire_stats()) == WIRE


def test_serve_json_keeps_its_keys(crashed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["serve", "--recover", "--journal", crashed,
                     "--json"]) == 0
    doc = json.loads(out.getvalue())
    assert set(doc) == SERVE_JSON
    assert_metrics_keys(doc["metrics"])
    assert doc["recovery"] == doc["metrics"]["recovery"]
    assert doc["recovery"]["recovered"] == 2


def test_every_owner_read_spreads_its_counts():
    admission = AdmissionControl()
    owners = [(ResultCache(), "stats"), (GraphStore(), "stats"),
              (JobQueue(admission), "stats"), (admission, None),
              (GraphService(SPEC), "metrics")]
    for owner, read in owners:
        assert set(owner.counts) == set(owner.COUNTS)
        if read is not None:
            group = getattr(owner, read)()
            spread = set(owner.COUNTS) - {"recovered"}
            assert spread <= set(group), type(owner).__name__
    queue = JobQueue(admission).stats()
    assert set(AdmissionControl.COUNTS) <= set(queue)
