"""Graph store: versioning, running-job accounting, partition memoization.

``_attach``/``_detach`` are the running-job counters ``GraphService``
drives on admit/finish (admission budgets); pins are ``snapshot()`` /
``release()`` (see ``test_snapshots.py``).
"""

import pytest

from repro.api import ClusterSpec
from repro.engines import GraphXEngine, PowerGraphEngine
from repro.errors import ServeError
from repro.graph import DATASETS, load_dataset
from repro.serve import GraphStore


@pytest.fixture
def store():
    s = GraphStore()
    s.load("g", dataset="wrn")
    return s


def test_load_requires_exactly_one_source(store):
    with pytest.raises(ServeError):
        store.load("x")
    with pytest.raises(ServeError):
        store.load("x", load_dataset("wrn"), dataset="wrn")


def test_reload_bumps_version(store):
    assert store.get("g").version == 1
    store.replace("g", dataset="wrn")
    assert store.get("g").version == 2


def test_load_refuses_an_existing_key(store):
    """A resident graph changes through replace()/mutate(), which keep
    running jobs on their pinned snapshot; load() names them."""
    graph = store.get("g").graph
    with pytest.raises(ServeError, match=r"replace.*mutate"):
        store.load("g", dataset="wrn")
    assert store.get("g").version == 1 and store.get("g").graph is graph
    store._attach("g")
    with store.snapshot("g") as snap:
        entry = store.replace("g", DATASETS["wrn"].build())  # not refused
        assert entry.version == 2 and entry.graph is not graph
        assert snap.graph is graph
    store._detach("g")


def test_replace_with_the_shared_twin_is_still_a_new_version(store):
    """``load_dataset`` hands every caller the same read-only twin, so
    a replace by dataset name swaps a graph for itself: versions, pins
    and byte accounting must not care."""
    twin = store.get("g").graph
    assert twin is load_dataset("wrn")
    nbytes = store.total_bytes()
    with store.snapshot("g") as snap:
        entry = store.replace("g", dataset="wrn")
        assert entry.version == 2 and entry.graph is twin
        assert snap.version == 1 and snap.graph is twin
        assert store.pinned_versions("g") == {1}
        assert store.retained_bytes() == nbytes     # v1, held by the pin
        assert store.total_bytes() == nbytes
    assert store.retained_bytes() == 0              # v1 dropped, v2 stays
    assert store.get("g").graph is twin


def test_unknown_key_raises(store):
    with pytest.raises(ServeError, match="unknown graph"):
        store.get("nope")
    with pytest.raises(ServeError, match="unknown graph"):
        store.snapshot("nope")


def test_attach_detach_counting(store):
    store._attach("g")
    store._attach("g")
    assert store.get("g").attached == 2
    assert store.get("g").total_attaches == 2
    store._detach("g")
    store._detach("g")
    assert store.get("g").attached == 0
    with pytest.raises(ServeError):
        store._detach("g")


def test_partitions_are_memoized_per_engine_and_nodes(store):
    cluster = ClusterSpec(nodes=2, gpus_per_node=1).build()
    e1 = store.build_engine("g", PowerGraphEngine, cluster)
    e2 = store.build_engine("g", PowerGraphEngine, cluster)
    assert e2.pgraph is e1.pgraph          # shared immutable partition
    assert e2 is not e1                    # fresh engine state
    assert store.partition_builds == 1 and store.partition_hits == 1

    # different strategy or node count -> its own partition
    store.build_engine("g", GraphXEngine, cluster)
    four = ClusterSpec(nodes=4, gpus_per_node=1).build()
    e4 = store.build_engine("g", PowerGraphEngine, four)
    assert e4.pgraph is not e1.pgraph
    assert store.partition_builds == 3


def test_reload_drops_memoized_partitions(store):
    cluster = ClusterSpec(nodes=2, gpus_per_node=1).build()
    e1 = store.build_engine("g", PowerGraphEngine, cluster)
    store.replace("g", dataset="wrn")
    e2 = store.build_engine("g", PowerGraphEngine, cluster)
    assert e2.pgraph is not e1.pgraph
    assert store.partition_builds == 2


def test_unload(store):
    store._attach("g")
    with pytest.raises(ServeError, match="attached"):
        store.unload("g")
    store._detach("g")
    snap = store.snapshot("g")
    with pytest.raises(ServeError, match="pinned"):
        store.unload("g")
    snap.release()
    store.unload("g")
    assert "g" not in store and len(store) == 0


def test_bytes_accounting(store):
    entry = store.get("g")
    g = entry.graph
    expected = (g.indptr.nbytes + g.src.nbytes + g.dst.nbytes
                + g.weights.nbytes)
    assert entry.nbytes == expected
    assert store.total_bytes() == expected
    assert store.attached_bytes() == 0     # nothing attached yet
    store._attach("g")
    assert store.attached_bytes() == expected
    store._attach("g")                      # second job: counted once
    assert store.attached_bytes() == expected


def test_stats_shape(store):
    stats = store.stats()
    assert stats["graphs"]["g"]["version"] == 1
    assert stats["total_bytes"] > 0
    assert stats["partitions"] == 0
