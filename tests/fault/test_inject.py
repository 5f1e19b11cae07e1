"""Unit tests for fault plans, events, and the injector."""

import dataclasses

import pytest

from repro.cluster import make_cluster
from repro.core import GXPlug, MiddlewareConfig
from repro.core.config import ClusterSpec
from repro.errors import FaultPlanError, MiddlewareError
from repro.fault import (
    CRASH,
    GRAY_KINDS,
    HANG,
    KINDS,
    LINK_FLAKY,
    LINK_KINDS,
    MESSAGE_DELAY,
    MESSAGE_DROP,
    SHM_CORRUPTION,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)


def test_event_validation():
    with pytest.raises(FaultPlanError):
        FaultEvent(kind="meteor", superstep=0)
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=CRASH, superstep=-1)
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=CRASH, superstep=0, node_id=-2)
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=CRASH, superstep=0, repeat=0)
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=HANG, superstep=0, duration_ms=-1.0)
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=MESSAGE_DROP, superstep=0, direction="sideways")


def test_event_refuses_negative_kernels_and_bad_gray_shapes():
    with pytest.raises(FaultPlanError, match="after_kernels"):
        FaultEvent(kind=CRASH, superstep=0, after_kernels=-1)
    for kind in GRAY_KINDS + LINK_KINDS:
        with pytest.raises(FaultPlanError, match="factor"):
            FaultEvent(kind=kind, superstep=0, factor=0.5)
        with pytest.raises(FaultPlanError, match="passes"):
            FaultEvent(kind=kind, superstep=0, passes=0)
    # the gray shape binds only the gray kinds
    FaultEvent(kind=CRASH, superstep=0, factor=0.5, passes=0)


def test_plan_is_immutable_and_extendable():
    plan = FaultPlan.single(CRASH, 2)
    assert len(plan.events) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.events = ()
    bigger = dataclasses.replace(
        plan, events=plan.events + (FaultEvent(kind=HANG, superstep=4),))
    assert len(plan.events) == 1            # original untouched
    assert [e.kind for e in bigger.events] == [CRASH, HANG]
    with pytest.raises(FaultPlanError):     # an extension is validated
        dataclasses.replace(plan, events=plan.events + ("crash",))


def test_requires_monitor_only_for_stall_kinds():
    assert not FaultPlan.single(CRASH, 0).requires_monitor
    assert not FaultPlan.single(SHM_CORRUPTION, 0).requires_monitor
    assert not FaultPlan.single(MESSAGE_DELAY, 0).requires_monitor
    assert FaultPlan.single(HANG, 0).requires_monitor
    assert FaultPlan.single(MESSAGE_DROP, 0).requires_monitor


def test_random_plan_deterministic_per_seed():
    kw = dict(supersteps=20, num_nodes=4, daemons_per_node=2, rate=0.2)
    assert FaultPlan.random(7, **kw) == FaultPlan.random(7, **kw)
    assert FaultPlan.random(7, **kw) != FaultPlan.random(8, **kw)
    plan = FaultPlan.random(7, **kw)
    for event in plan.events:
        assert event.kind in KINDS
        assert 0 <= event.superstep < 20
        assert 0 <= event.node_id < 4
        assert 0 <= event.daemon_index < 2


def test_random_plan_rate_bounds():
    assert FaultPlan.random(1, supersteps=10, num_nodes=2,
                            rate=0.0).events == ()
    dense = FaultPlan.random(1, supersteps=10, num_nodes=2, rate=1.0)
    assert len(dense.events) == 20
    with pytest.raises(FaultPlanError):
        FaultPlan.random(1, supersteps=10, num_nodes=2, rate=1.5)


@pytest.mark.parametrize("shape", [
    dict(supersteps=-1, num_nodes=2),
    dict(supersteps=10, num_nodes=0),
    dict(supersteps=10, num_nodes=2, daemons_per_node=0),
])
def test_random_plan_refuses_bad_shape(shape):
    with pytest.raises(FaultPlanError, match="bad plan shape"):
        FaultPlan.random(1, **shape)


def test_injector_validates_targets():
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster)
    FaultInjector(FaultPlan.single(CRASH, 0, node_id=1)) \
        .validate_against(plug.agents)
    with pytest.raises(FaultPlanError):
        FaultInjector(FaultPlan.single(CRASH, 0, node_id=5)) \
            .validate_against(plug.agents)
    with pytest.raises(FaultPlanError):
        FaultInjector(FaultPlan.single(CRASH, 0, daemon_index=3)) \
            .validate_against(plug.agents)


def test_config_builds_and_validates_injector():
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster, MiddlewareConfig(
        fault_plan=FaultPlan.single(CRASH, 0)))
    assert plug.injector is not None
    with pytest.raises(FaultPlanError):
        GXPlug(make_cluster(2, gpus_per_node=1), MiddlewareConfig(
            fault_plan=FaultPlan.single(CRASH, 0, node_id=9)))


def test_stall_plan_requires_monitor_in_config():
    """A stall plan arms the heartbeat monitor on any pipelined config,
    ``FULL`` included; heartbeats ride the Algorithm 1-2 exchange, so
    the sequential flow refuses the plan."""
    MiddlewareConfig(fault_plan=FaultPlan.single(HANG, 0))
    with pytest.raises(MiddlewareError, match="requires pipeline=True"):
        MiddlewareConfig(fault_plan=FaultPlan.single(HANG, 0),
                         pipeline=False)


def test_arm_is_one_shot():
    """Events are consumed when armed, so a superstep re-executed after a
    rollback does not re-inject the same fault."""
    cluster = make_cluster(2, gpus_per_node=1)
    plug = GXPlug(cluster)
    injector = FaultInjector(FaultPlan.single(HANG, 3, duration_ms=9.0))
    assert injector.arm(0, plug.agents, plug.transport) == 0
    assert injector.arm(3, plug.agents, plug.transport) == 1
    assert plug.agents[0].daemons[0].pending_hang_ms == 9.0
    plug.agents[0].daemons[0].pending_hang_ms = None
    assert injector.arm(3, plug.agents, plug.transport) == 0    # consumed
    assert plug.agents[0].daemons[0].pending_hang_ms is None
    assert injector.injected == 1
    assert injector.injected_by_kind == {HANG: 1}


def test_arm_reaches_every_kind():
    cluster = make_cluster(1, gpus_per_node=1)
    plug = GXPlug(cluster)
    daemon = plug.agents[0].daemons[0]
    plan = FaultPlan(events=(
        FaultEvent(kind=CRASH, superstep=0, after_kernels=2, repeat=3),
        FaultEvent(kind=HANG, superstep=0, duration_ms=50.0),
        FaultEvent(kind=SHM_CORRUPTION, superstep=0),
        FaultEvent(kind=MESSAGE_DROP, superstep=0),
        FaultEvent(kind=MESSAGE_DELAY, superstep=0, duration_ms=4.0,
                   direction="to_daemon"),
    ))
    injector = FaultInjector(plan)
    assert injector.arm(0, plug.agents, plug.transport) == 5
    assert daemon.pending_crashes == 2
    assert daemon.crash_after_kernels == 2
    assert daemon.pending_hang_ms == 50.0
    assert "areas" in daemon.segment.corrupted_regions
    assert daemon.to_agent.drop_pending == 1
    assert daemon.to_daemon.delay_pending_ms == 4.0
    assert injector.injected == 5
    assert sorted(injector.injected_by_kind) == sorted(KINDS)


def test_link_flaky_plan_inflates_alternate_collectives():
    """A ``link_flaky`` event armed through a plan on ``rack:2x1``
    slows node 1's cross-rack uplink on every other collective only."""
    cluster = ClusterSpec(nodes=2, gpus_per_node=1,
                          topology="rack:2x1").build()
    plug = GXPlug(cluster, MiddlewareConfig(fault_plan=FaultPlan.single(
        LINK_FLAKY, 0, node_id=1, factor=4.0, passes=4)))
    assert plug.arm_faults(0) == 1
    healthy = cluster.topology.sync_ms(2, 4096)
    costs = [plug.transport.sync_ms(2, 4096) for _ in range(5)]
    assert costs[0] > healthy and costs[2] > healthy
    assert costs[1] == costs[3] == costs[4] == healthy   # 4 passes spent
    assert plug.transport.link_inflations == 2
