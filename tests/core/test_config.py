"""Tests for MiddlewareConfig."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import (
    BASELINE,
    FULL,
    ClusterSpec,
    MiddlewareConfig,
    StragglerConfig,
    check_cost,
)
from repro.errors import MiddlewareError


def test_full_default_everything_on():
    assert FULL.pipeline and FULL.sync_cache and FULL.lazy_upload
    assert FULL.sync_skip and FULL.runtime_isolation
    assert FULL.block_size is None  # Pipeline*: Lemma-1 optimal


def test_baseline_everything_off():
    assert not BASELINE.pipeline
    assert not BASELINE.sync_cache
    assert not BASELINE.sync_skip
    assert BASELINE.runtime_isolation  # isolation is framework, not opt


def test_with_returns_modified_copy():
    c = FULL.with_(pipeline=False)
    assert not c.pipeline
    assert FULL.pipeline  # original untouched


def test_block_size_validation():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(block_size=0)
    MiddlewareConfig(block_size=1)  # ok


def test_cache_capacity_validation():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(cache_capacity=0)


def test_lazy_upload_requires_cache():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(sync_cache=False, lazy_upload=True, sync_skip=False)


def test_sync_skip_requires_cache():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(sync_cache=False, lazy_upload=False, sync_skip=True)


def test_rebalance_on_degrade_requires_degrade_to_host():
    with pytest.raises(MiddlewareError, match="requires degrade_to_host"):
        MiddlewareConfig(rebalance_on_degrade=True)
    MiddlewareConfig(rebalance_on_degrade=True, degrade_to_host=True)


def test_frozen():
    with pytest.raises(Exception):
        FULL.pipeline = False


COUNTS = {"block_size": 1, "cache_capacity": 1,
          "skip_max_local_iterations": 1, "checkpoint_interval": 0}


@pytest.mark.parametrize("field", sorted(COUNTS))
@pytest.mark.parametrize("bad", [2.5, True, "10", 1.0])
def test_counts_must_be_integers(field, bad):
    """A float, bool or string count is refused at construction, not
    mid-run inside numpy."""
    with pytest.raises(MiddlewareError, match=field):
        MiddlewareConfig(**{field: bad})


@pytest.mark.parametrize("field", sorted(COUNTS))
def test_counts_below_their_minimum_are_refused(field):
    with pytest.raises(MiddlewareError, match=field):
        MiddlewareConfig(**{field: COUNTS[field] - 1})


@pytest.mark.parametrize("field", sorted(COUNTS))
def test_numpy_integer_counts_are_accepted(field):
    value = np.int64(COUNTS[field] + 2)
    assert getattr(MiddlewareConfig(**{field: value}), field) == value


SWITCHES = [(MiddlewareConfig, name) for name in (
    "pipeline", "sync_cache", "lazy_upload", "sync_skip",
    "runtime_isolation", "degrade_to_host", "rebalance_on_degrade")] + [
    (StragglerConfig, "enabled"), (StragglerConfig, "reestimate")]


@pytest.mark.parametrize("cls,field", SWITCHES)
@pytest.mark.parametrize("bad", ["yes", 1, 0, None])
def test_switches_must_be_bools(cls, field, bad):
    """A switch holding a string or a number is refused, not read as
    set (``"yes"``) or unset."""
    with pytest.raises(MiddlewareError, match=f"{field} must be a bool"):
        cls(**{field: bad})


def test_numpy_bool_switches_are_accepted():
    assert not MiddlewareConfig(sync_skip=np.bool_(False)).sync_skip
    assert StragglerConfig(enabled=np.bool_(True)).enabled


def test_cache_capacity_of_a_numpy_integer_runs():
    """A bounded cache sized by an ``np.int64`` builds and evicts."""
    from repro.core.sync_cache import LRUVertexCache
    cache = LRUVertexCache(np.int64(2))
    evicted = cache.insert_many(np.arange(4))
    assert evicted.tolist() == [0, 1] and len(cache) == 2


@pytest.mark.parametrize("bad", [2.5, True, "10", 0])
def test_cache_refuses_a_bad_capacity(bad):
    from repro.core.sync_cache import LRUVertexCache
    with pytest.raises(MiddlewareError, match="capacity"):
        LRUVertexCache(bad)


def _cost_sites():
    """Every constructor that takes a float pricing simulated (or
    serving) time, as ``(id, build(value), error class, positive)``."""
    from repro.accel.costmodel import V100, DeviceCostModel
    from repro.cluster.network import NetworkModel, ResilientTransport
    from repro.cluster.node import NATIVE_RUNTIME
    from repro.cluster.topology import LinkModel, Topology
    from repro.core.pipeline import PipelineCoefficients
    from repro.errors import (CheckpointError, DeviceError, FaultError,
                              FaultPlanError, ServeError, SimulationError)
    from repro.fault import CheckpointStore, HeartbeatMonitor, RetryPolicy
    from repro.fault.inject import HANG, SLOWDOWN, FaultEvent
    from repro.serve import GraphService, JobSpec
    from repro.serve.client import GraphClient
    from repro.serve.queue import AdmissionControl
    from repro.serve.wire import GraphServiceServer

    def device(**kw):
        base = dict(name="d", init_ms=1.0, call_ms=1.0,
                    compute_ms_per_entity=1e-3, copy_ms_per_entity=1e-3,
                    threads=8, memory_bytes=1 << 20)
        return DeviceCostModel(**{**base, **kw})

    return [
        ("cluster-ms_per_byte", lambda v: ClusterSpec(nodes=2, ms_per_byte=v),
         MiddlewareError, False),
        ("link-clause-latency", lambda v: ClusterSpec(
            nodes=2, topology=f"flat:2;link=1-0:{v}:1e-5"),
         SimulationError, False),
        ("link-clause-rate", lambda v: ClusterSpec(
            nodes=2, topology=f"flat:2;link=1-0:1.0:{v}"),
         SimulationError, False),
        ("link-latency", lambda v: LinkModel(v, 0.0), SimulationError, False),
        ("link-rate", lambda v: LinkModel(0.0, v), SimulationError, False),
        ("network-latency", lambda v: NetworkModel(latency_ms=v),
         SimulationError, False),
        ("network-coord", lambda v: NetworkModel(coord_ms_per_node=v),
         SimulationError, False),
        ("ack-timeout", lambda v: ResilientTransport(
            Topology([[0, 1]]), ack_timeout_ms=v), SimulationError, True),
        ("device-init", lambda v: device(init_ms=v), DeviceError, False),
        ("device-copy", lambda v: device(copy_ms_per_entity=v),
         DeviceError, False),
        ("device-scale", lambda v: V100.scaled(v), DeviceError, True),
        ("host-sync", lambda v: dataclasses.replace(
            NATIVE_RUNTIME, sync_fixed_ms=v), SimulationError, False),
        ("checkpoint-cell", lambda v: CheckpointStore(1, ms_per_cell=v),
         CheckpointError, False),
        ("checkpoint-fixed", lambda v: CheckpointStore(1, fixed_ms=v),
         CheckpointError, False),
        ("hang-duration", lambda v: FaultEvent(HANG, 1, duration_ms=v),
         FaultPlanError, False),
        ("gray-factor", lambda v: FaultEvent(SLOWDOWN, 1, factor=v),
         FaultPlanError, True),
        ("heartbeat-interval", lambda v: HeartbeatMonitor(interval_ms=v),
         SimulationError, True),
        ("heartbeat-timeout", lambda v: HeartbeatMonitor(timeout_ms=v),
         SimulationError, False),
        ("retry-base", lambda v: RetryPolicy(base_delay_ms=v),
         FaultError, False),
        ("retry-backoff", lambda v: RetryPolicy(backoff_factor=v),
         FaultError, True),
        ("retry-max", lambda v: RetryPolicy(max_delay_ms=v),
         FaultError, False),
        ("pipeline-k2", lambda v: PipelineCoefficients(1.0, v, 1.0, 0.0),
         MiddlewareError, True),
        ("pipeline-call", lambda v: PipelineCoefficients(1.0, 1.0, 1.0, v),
         MiddlewareError, False),
        ("server-lease", lambda v: GraphServiceServer(GraphService(),
                                                      lease_ms=v),
         ServeError, True),
        ("service-waiter", lambda v: GraphService(waiter_timeout_ms=v),
         ServeError, True),
        ("service-memory", lambda v: GraphService(memory_budget_mb=v),
         ServeError, True),
        ("admission-running", lambda v: AdmissionControl(max_running=v),
         ServeError, True),
        ("client-timeout", lambda v: GraphClient("127.0.0.1", 1,
                                                 timeout_s=v),
         ServeError, True),
        ("job-deadline", lambda v: JobSpec(graph="g", deadline_ms=v),
         ServeError, True),
        ("job-backoff", lambda v: JobSpec(graph="g", retry_backoff_ms=v),
         ServeError, False),
    ]


@pytest.mark.parametrize("site", _cost_sites(), ids=lambda s: s[0])
def test_every_cost_site_refuses_what_check_cost_refuses(site):
    """NaN, ±inf, a bool and a negative value fail at construction with
    the site's own error class, naming the value (a ``< 0`` guard used
    to pass NaN, which then priced a link as free); a positive-only
    site refuses 0 too.  A ``;link=`` clause spells a bool ``True``,
    which is no number at all."""
    _, build, error, positive = site
    bad = [float("nan"), float("inf"), float("-inf"), True, -1.0]
    for value in bad + ([0.0] if positive else []):
        with pytest.raises(error, match=r"must be .*got |could not convert"):
            build(value)


def test_check_cost_returns_a_float_and_names_the_value():
    assert check_cost("x", np.float32(2.5)) == 2.5
    assert type(check_cost("x", 3)) is float
    assert check_cost("x", 0) == 0.0
    with pytest.raises(MiddlewareError, match=r"x must be positive, got 0"):
        check_cost("x", 0, positive=True)
    with pytest.raises(MiddlewareError,
                       match=r"x must be a finite number, got nan"):
        check_cost("x", float("nan"))
    with pytest.raises(MiddlewareError, match=r"a finite number, got '1'"):
        check_cost("x", "1")
