"""End-to-end fault recovery: injected faults must not change results.

The acceptance bar: PageRank with an injected fault at superstep k
converges to the same ranks (within 1e-9) as the fault-free run, for
every fault kind, with deterministic seeds.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    FULL,
    NETWORK_RESILIENT,
    RESILIENT,
    GXPlug,
    MultiSourceSSSP,
    PageRank,
    PowerGraphEngine,
    load_dataset,
    make_cluster,
)
from repro.engines import GraphXEngine
from repro.errors import (
    AcceleratorsExhausted,
    DaemonDead,
    DeviceFailure,
    FaultError,
    ReproError,
    RetryExhausted,
)
from repro.fault import (
    ALL_KINDS,
    CRASH,
    HANG,
    MESSAGE_DELAY,
    MESSAGE_DROP,
    SHM_CORRUPTION,
    FaultPlan,
)

NUM_NODES = 2
MAX_ITER = 10


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wrn")


def run_pagerank(graph, config, engine_cls=PowerGraphEngine):
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, config)
    engine = engine_cls.build(graph, cluster, middleware=plug)
    result = engine.run(PageRank(), max_iterations=MAX_ITER)
    return result, plug


@pytest.fixture(scope="module")
def fault_free(graph):
    result, _ = run_pagerank(graph, FULL)
    return result


@pytest.mark.parametrize("kind,kwargs,config", [
    (CRASH, dict(after_kernels=1), FULL),
    (CRASH, dict(after_kernels=0, node_id=1), FULL),
    (HANG, dict(duration_ms=100.0), RESILIENT),
    (SHM_CORRUPTION, dict(), FULL),
    (MESSAGE_DROP, dict(direction="to_agent"), RESILIENT),
    (MESSAGE_DROP, dict(direction="to_daemon"), RESILIENT),
    (MESSAGE_DELAY, dict(duration_ms=5.0), FULL),
    # the plan arms the monitor: stalls are caught without RESILIENT too
    (HANG, dict(duration_ms=100.0), FULL),
    (MESSAGE_DROP, dict(direction="to_agent"), FULL),
])
@pytest.mark.parametrize("superstep", [0, 3])
def test_single_fault_converges_to_fault_free_ranks(
        graph, fault_free, kind, kwargs, config, superstep):
    plan = FaultPlan.single(kind, superstep, **kwargs)
    result, plug = run_pagerank(graph, config.with_(fault_plan=plan))
    assert result.converged == fault_free.converged
    assert np.abs(result.values - fault_free.values).max() < 1e-9
    report = plug.fault_report(result)
    assert report.faults_injected == 1
    assert report.injected_by_kind == {kind: 1}
    if kind == MESSAGE_DELAY:
        # transient: latency only, no recovery machinery involved
        assert report.retries == 0
        assert report.daemon_respawns == 0
    else:
        assert report.retries >= 1
        assert report.recovered_passes >= 1
        assert report.daemon_respawns >= 1
    if kind in (HANG, MESSAGE_DROP):
        assert report.heartbeat_verdicts >= 1
    assert not report.degraded_nodes


def test_run_result_and_fault_report_are_one_record(graph):
    """Every field RunResult shares with FaultReport reads the same in
    both, on a campaign over every fault kind."""
    plan = FaultPlan.random(3, supersteps=MAX_ITER, num_nodes=NUM_NODES,
                            rate=0.4, kinds=ALL_KINDS)
    result, plug = run_pagerank(graph,
                                NETWORK_RESILIENT.with_(fault_plan=plan))
    report = dataclasses.asdict(plug.fault_report(result))
    shared = [f.name for f in dataclasses.fields(result) if f.name in report]
    assert len(shared) == 16
    assert {name: getattr(result, name) for name in shared} == {
        name: report[name] for name in shared}
    assert sum(bool(report[name]) for name in shared) >= 6


def test_faults_slow_the_run_but_keep_it_correct(graph, fault_free):
    plan = FaultPlan.single(CRASH, 2)
    result, _ = run_pagerank(graph, FULL.with_(fault_plan=plan))
    assert result.total_ms > fault_free.total_ms
    hit = [s for s in result.stats if s.faults_injected]
    assert len(hit) == 1 and hit[0].index == 2
    assert hit[0].retries >= 1 and hit[0].recoveries >= 1


def test_recovery_on_graphx_engine_too(graph):
    base, _ = run_pagerank(graph, FULL, engine_cls=GraphXEngine)
    plan = FaultPlan.single(CRASH, 1)
    result, plug = run_pagerank(graph, FULL.with_(fault_plan=plan),
                                engine_cls=GraphXEngine)
    assert np.abs(result.values - base.values).max() < 1e-9
    assert plug.fault_report(result).recovered_passes >= 1


def test_seeded_random_plan_is_reproducible(graph):
    plan = FaultPlan.random(11, supersteps=MAX_ITER, num_nodes=NUM_NODES,
                            rate=0.15, hang_ms=60.0)
    assert plan.events, "seed 11 must schedule at least one event"
    config = RESILIENT.with_(fault_plan=plan)
    first, _ = run_pagerank(graph, config)
    second, _ = run_pagerank(graph, config)
    assert first.total_ms == second.total_ms          # bit-for-bit timing
    np.testing.assert_array_equal(first.values, second.values)


def test_exhausted_retries_degrade_node_and_roll_back(graph, fault_free):
    plan = FaultPlan.single(CRASH, 4, repeat=10)      # outlives the budget
    result, plug = run_pagerank(graph, RESILIENT.with_(fault_plan=plan))
    assert result.rollbacks == 1
    assert result.degraded_nodes == [0]
    assert result.wasted_ms > 0
    assert np.abs(result.values - fault_free.values).max() < 1e-9
    # stats stay contiguous after the rollback truncation
    assert [s.index for s in result.stats] == list(range(result.iterations))
    report = plug.fault_report(result)
    assert report.rollbacks == 1
    assert report.degraded_nodes == [0]
    assert not report.clean
    assert "degraded" in report.summary()


def test_checkpoints_bound_the_rollback_distance(graph):
    """With periodic checkpoints the run rolls back to the last saved
    superstep, not to iteration 0 — strictly less work is discarded."""
    plan = FaultPlan.single(CRASH, 5, repeat=10)
    with_ckpt, _ = run_pagerank(graph, RESILIENT.with_(fault_plan=plan))
    without_ckpt, _ = run_pagerank(
        graph, RESILIENT.with_(fault_plan=plan, checkpoint_interval=0))
    assert with_ckpt.rollbacks == without_ckpt.rollbacks == 1
    assert with_ckpt.wasted_ms < without_ckpt.wasted_ms
    np.testing.assert_allclose(with_ckpt.values, without_ckpt.values,
                               atol=1e-9)
    assert sum(s.checkpoint_ms for s in with_ckpt.stats) > 0
    assert sum(s.checkpoint_ms for s in without_ckpt.stats) == 0


def test_rollback_through_delta_checkpoints_keeps_fault_free_values(graph):
    """Checkpointing every superstep, a frontier algorithm saves deltas;
    the rollback restores base + deltas and the run converges to the
    fault-free answer exactly (in more supersteps: the degraded node
    sends the run back to the strict order)."""
    config = RESILIENT.with_(checkpoint_interval=1)
    plan = FaultPlan.single(CRASH, 4, repeat=10)      # outlives the budget
    runs = []
    for cfg in (config, config.with_(fault_plan=plan)):
        cluster = make_cluster(NUM_NODES, gpus_per_node=1)
        engine = PowerGraphEngine.build(graph, cluster,
                                        middleware=GXPlug(cluster, cfg))
        runs.append(engine.run(MultiSourceSSSP(sources=(0, 1))))
    clean, faulty = runs
    assert clean.rollbacks == 0 and faulty.rollbacks == 1
    assert clean.converged and faulty.converged
    np.testing.assert_array_equal(faulty.values, clean.values)


def test_exhaustion_without_degrade_reraises(graph):
    plan = FaultPlan.single(CRASH, 1, repeat=10)
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, FULL.with_(fault_plan=plan))
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    with pytest.raises(DeviceFailure):
        engine.run(PageRank(), max_iterations=MAX_ITER)
    assert not plug.agent_for(0).degraded


def test_fault_free_resilient_run_pays_only_checkpoints(graph, fault_free):
    """Monitoring is free (heartbeats ride on protocol messages); the
    enabled fault-tolerance path costs exactly the periodic snapshots."""
    result, plug = run_pagerank(graph, RESILIENT)
    np.testing.assert_array_equal(result.values, fault_free.values)
    checkpoint_ms = sum(s.checkpoint_ms for s in result.stats)
    assert checkpoint_ms > 0
    assert result.total_ms - fault_free.total_ms == pytest.approx(
        checkpoint_ms, abs=1e-6)
    assert plug.fault_report(result).clean


def test_daemon_respawn_rebuilds_segment_and_channels(graph):
    cluster = make_cluster(1, gpus_per_node=1)
    plug = GXPlug(cluster)
    daemon = plug.agents[0].daemons[0]
    daemon.segment.corrupt("areas")
    old_channel = daemon.to_agent
    daemon.respawn()
    daemon.verify_segment()                   # fresh segment is clean
    assert daemon.segment.get("areas") is daemon.areas
    assert daemon.to_agent is not old_channel
    assert daemon.respawns == 1
    assert not daemon.accelerator.initialized  # pays re-init next pass


def test_fault_errors_subclass_the_repro_hierarchy():
    assert issubclass(FaultError, ReproError)
    assert issubclass(DaemonDead, FaultError)
    assert issubclass(RetryExhausted, FaultError)
    assert issubclass(AcceleratorsExhausted, RetryExhausted)
    err = DaemonDead("gone", daemon_id=3, silent_ms=7.5)
    assert err.daemon_id == 3 and err.silent_ms == 7.5
    exhausted = AcceleratorsExhausted("dead node", node_id=2)
    assert exhausted.node_id == 2


# -- rollback on a resumed run -------------------------------------------------
#
# ``RunResult.stats`` of a resumed run starts at the resume point, not at
# superstep 0, and a run resumed without a checkpoint store falls back
# to the resume point — two places where "absolute iteration" and
# "position in this run" must not be confused.

RESUME_CAP = 12


def resume_point(graph, iteration):
    """The durable state a fault-free run holds after ``iteration``
    supersteps."""
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, RESILIENT.with_(checkpoint_interval=1))
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    stepper = engine.run_stepwise(PageRank(), max_iterations=RESUME_CAP)
    for _ in range(iteration):
        next(stepper)
    ckpt = engine.checkpoint_store.peek()
    assert ckpt.iteration == iteration
    return ckpt


def run_resumed(graph, config, ckpt, cap=RESUME_CAP):
    """(result, step events) of a run resumed from ``ckpt``."""
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, config)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    stepper = engine.run_stepwise(PageRank(), max_iterations=cap,
                                  resume_from=ckpt)
    events = []
    while True:
        try:
            events.append(next(stepper))
        except StopIteration as stop:
            return stop.value, events


def test_rollback_on_a_resumed_run_trims_stats_by_position(graph):
    plan = FaultPlan.single(CRASH, 9, repeat=10)       # outlives the budget
    result, events = run_resumed(graph, RESILIENT.with_(fault_plan=plan),
                                 resume_point(graph, 6))
    assert result.rollbacks == 1 and result.degraded_nodes == [0]
    # superstep 8 ran twice (discarded, then replayed from the
    # iteration-8 checkpoint) and is reported once
    assert [s.index for s in result.stats] == list(range(6, RESUME_CAP))
    assert result.iterations == RESUME_CAP
    # everything the rollback threw away is booked as wasted: the
    # discarded supersteps and the failed attempt + restore
    at = next(i for i, e in enumerate(events) if e.kind == "rollback")
    rollback = events[at]
    discarded = [e for e in events[:at] if e.iteration > rollback.iteration]
    assert [e.iteration for e in discarded] == [9]
    assert result.wasted_ms == pytest.approx(
        sum(e.sim_ms for e in discarded) + rollback.sim_ms, abs=1e-9)
    # and the resumed tail is the uninterrupted faulty run's tail
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    plug = GXPlug(cluster, RESILIENT.with_(fault_plan=plan))
    whole = PowerGraphEngine.build(graph, cluster, middleware=plug).run(
        PageRank(), max_iterations=RESUME_CAP)
    np.testing.assert_array_equal(result.values, whole.values)


def test_resumed_run_without_a_store_falls_back_to_its_resume_point(graph):
    """No checkpoint store (``checkpoint_interval=0``): the rollback
    fallback is the state the run *started* from — for a resumed run
    that is the resume point and its iteration, not iteration 0."""
    cap = 8
    config = RESILIENT.with_(checkpoint_interval=0)
    cluster = make_cluster(NUM_NODES, gpus_per_node=1)
    whole = PowerGraphEngine.build(
        graph, cluster, middleware=GXPlug(cluster, config)).run(
            PageRank(), max_iterations=cap)
    plan = FaultPlan.single(CRASH, 5, repeat=10)
    result, events = run_resumed(graph, config.with_(fault_plan=plan),
                                 resume_point(graph, 3), cap=cap)
    assert result.rollbacks == 1 and result.degraded_nodes == [0]
    assert [e.iteration for e in events if e.kind == "rollback"] == [3]
    assert result.iterations == cap
    assert [s.index for s in result.stats] == list(range(3, cap))
    np.testing.assert_array_equal(result.values, whole.values)
