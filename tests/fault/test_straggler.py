"""Gray-failure tolerance: straggler detection, speculation, re-estimation.

Three layers under test:

* the :class:`~repro.fault.straggler.StragglerDetector` unit — EWMA
  inflation, median-relative flagging with patience, auto-unflag;
* the gray fault kinds (``slowdown`` / ``shm_slow`` / ``flaky_slowdown``)
  injected end to end — values must stay bit-identical to the clean run
  (slowdowns inflate *simulated durations*, never computed values);
* the responses — speculative block re-execution and online Lemma-2
  re-estimation — which must recover makespan without corrupting values
  beyond the 1e-9 repartition-regrouping tolerance.
"""

import numpy as np
import pytest

from repro import (
    RESILIENT,
    GXPlug,
    PageRank,
    PowerGraphEngine,
    StragglerConfig,
    StragglerDetector,
    load_dataset,
    make_cluster,
)
from repro.errors import MiddlewareError, SimulationError, StragglerVerdict
from repro.fault import (
    FLAKY_SLOWDOWN,
    GRAY_KINDS,
    PHASES,
    SHM_SLOW,
    SLOWDOWN,
    FaultPlan,
)
from repro.fault.report import FaultReport

NUM_NODES = 2
MAX_ITER = 6


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wiki-topcats")


def run_pagerank(graph, config, gpus=2):
    cluster = make_cluster(NUM_NODES, gpus_per_node=gpus)
    plug = GXPlug(cluster, config)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    result = engine.run(PageRank(), max_iterations=MAX_ITER)
    return result, plug


# ---------------------------------------------------------------------------
# detector unit
# ---------------------------------------------------------------------------

def test_detector_validation():
    with pytest.raises(SimulationError):
        StragglerDetector(ratio=1.0)
    with pytest.raises(SimulationError):
        StragglerDetector(patience=0)
    with pytest.raises(SimulationError):
        StragglerDetector(alpha=0.0)
    with pytest.raises(SimulationError):
        StragglerDetector(alpha=1.5)


def test_detector_rejects_unknown_phase():
    det = StragglerDetector()
    with pytest.raises(SimulationError):
        det.observe(0, "upload", 10, 1.0, 1.0)


def test_healthy_observations_never_flag():
    det = StragglerDetector(ratio=3.0, patience=2)
    for _ in range(20):
        for daemon in range(4):
            assert det.observe(daemon, "compute", 100, 5.0, 5.0) is None
    assert det.flagged == []
    assert det.observations == 80
    assert det.inflation(0, "compute") == pytest.approx(1.0)


def test_degenerate_observations_are_skipped():
    det = StragglerDetector()
    assert det.observe(0, "compute", 0, 5.0, 5.0) is None
    assert det.observe(0, "compute", 10, 5.0, 0.0) is None
    assert det.observations == 0
    assert det.observe_link(1, 5.0, 0.0) is None
    assert det.link_observations == 0


def test_unobserved_phases_and_links_read_neutral():
    det = StragglerDetector()
    det.observe_link(0, 4.0, 1.0)
    assert det.median_inflation("compute") == 1.0
    assert det.relative_link_inflation(1) == 1.0
    assert det.relative_link_inflation(0) == 4.0


def test_flag_after_patience_with_verdict_fields():
    det = StragglerDetector(ratio=3.0, patience=3, alpha=1.0)
    # three healthy peers pin the median at 1.0
    for daemon in (1, 2, 3):
        det.observe(daemon, "compute", 100, 5.0, 5.0)
    verdicts = [det.observe(0, "compute", 100, 20.0, 5.0)
                for _ in range(3)]
    assert verdicts[0] is None and verdicts[1] is None
    v = verdicts[2]
    assert isinstance(v, StragglerVerdict)
    assert v.daemon_id == 0
    assert v.phase == "compute"
    assert v.inflation == pytest.approx(4.0)
    assert v.median == pytest.approx(1.0)
    assert v.streak == 3
    assert det.is_straggler(0)
    assert det.flagged == [0]
    # already flagged: no duplicate verdict on further slow blocks
    assert det.observe(0, "compute", 100, 20.0, 5.0) is None
    assert len(det.verdicts) == 1


def test_median_floor_judges_fast_cluster_against_cost_model():
    det = StragglerDetector()
    det.observe(0, "transfer", 10, 0.5, 1.0)   # faster than modelled
    assert det.median_inflation("transfer") == 1.0
    assert det.relative_inflation(0, "transfer") == pytest.approx(0.5)
    assert det.relative_inflation(9, "transfer") == 1.0  # unobserved


def test_unflag_after_healthy_streak_counts_recovery():
    det = StragglerDetector(ratio=3.0, patience=2, alpha=1.0)
    for daemon in (1, 2, 3):
        det.observe(daemon, "compute", 100, 5.0, 5.0)
    for _ in range(2):
        det.observe(0, "compute", 100, 20.0, 5.0)
    assert det.is_straggler(0)
    det.observe(0, "compute", 100, 5.0, 5.0)
    assert det.is_straggler(0)            # one healthy block is not enough
    det.observe(0, "compute", 100, 5.0, 5.0)
    assert not det.is_straggler(0)
    assert det.recoveries == 1


def test_clear_voids_history():
    det = StragglerDetector(ratio=2.0, patience=1, alpha=1.0)
    for daemon in (1, 2, 3):
        det.observe(daemon, "compute", 100, 5.0, 5.0)
    det.observe(0, "compute", 100, 50.0, 5.0)
    assert det.is_straggler(0)
    det.clear(0)
    assert not det.is_straggler(0)
    assert det.inflation(0, "compute") == 1.0


def test_speculation_counters():
    det = StragglerDetector()
    det.record_win(3.5)
    det.record_loss(1.5)
    assert det.speculative_wins == 1
    assert det.speculative_losses == 1
    assert det.speculative_wasted_ms == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# report semantics (satellite: FaultReport.clean)
# ---------------------------------------------------------------------------

def test_report_clean_ignores_passive_observation():
    # watching is free: coefficient updates never dirty a run
    assert FaultReport(coeff_updates=12).clean
    assert FaultReport().summary() == \
        "fault report: clean run (no faults, no recoveries)"


@pytest.mark.parametrize("dirty", [
    dict(straggler_verdicts=1),
    dict(speculative_wins=1),
    dict(speculative_losses=1),
    dict(online_rebalances=1),
    dict(heartbeat_verdicts=1),
    dict(daemon_respawns=1),
    dict(rebalance_events=1),
])
def test_report_responses_dirty_the_run(dirty):
    report = FaultReport(**dirty)
    assert not report.clean
    assert report.summary() != \
        "fault report: clean run (no faults, no recoveries)"


def test_report_summary_mentions_gray_layer():
    report = FaultReport(straggler_verdicts=2, straggler_recoveries=1,
                         speculative_wins=1, online_rebalances=1,
                         coeff_updates=8)
    assert "gray:" in report.summary()
    assert "1W/0L" in report.summary()


# ---------------------------------------------------------------------------
# injection end to end
# ---------------------------------------------------------------------------

def test_detection_is_free_on_clean_runs(graph):
    off, _ = run_pagerank(graph, RESILIENT.with_(
        straggler=StragglerConfig()))
    on, plug = run_pagerank(graph, RESILIENT.with_(
        straggler=StragglerConfig(enabled=True, reestimate=True)))
    assert np.array_equal(on.values, off.values)
    assert on.total_ms == off.total_ms
    assert on.straggler_verdicts == 0
    assert plug.fault_report(on).clean


@pytest.mark.parametrize("kind", GRAY_KINDS)
def test_gray_kinds_slow_but_never_corrupt(graph, kind):
    clean, _ = run_pagerank(graph, RESILIENT.with_(
        straggler=StragglerConfig()))
    plan = FaultPlan.single(kind, 1, node_id=0, daemon_index=0,
                            factor=4.0, passes=4)
    slow, plug = run_pagerank(graph, RESILIENT.with_(
        fault_plan=plan, straggler=StragglerConfig()))
    # durations inflate, values do not
    assert np.array_equal(slow.values, clean.values)
    assert slow.total_ms > clean.total_ms
    assert plug.injector.injected == 1


def test_slowdown_with_responses_recovers_makespan(graph):
    clean, _ = run_pagerank(graph, RESILIENT.with_(
        straggler=StragglerConfig()))
    plan = FaultPlan.single(SLOWDOWN, 1, node_id=0, daemon_index=0,
                            factor=4.0, passes=4)
    off, _ = run_pagerank(graph, RESILIENT.with_(
        fault_plan=plan, straggler=StragglerConfig()))
    on, plug = run_pagerank(graph, RESILIENT.with_(
        fault_plan=plan,
        straggler=StragglerConfig(enabled=True, reestimate=True)))
    # mid-run repartition regroups floating-point merges: 1e-9, like
    # the existing degradation-rebalance path
    assert np.allclose(on.values, clean.values, atol=1e-9)
    assert on.straggler_verdicts >= 1
    assert on.total_ms < off.total_ms
    report = plug.fault_report(on)
    assert not report.clean
    assert "gray:" in report.summary()


def test_speculate_config_requires_detection():
    # speculation rides ``enabled`` itself; re-estimation is the one
    # response that can be asked for without detection, and is refused
    with pytest.raises(MiddlewareError):
        StragglerConfig(reestimate=True)


def test_phases_constant():
    assert PHASES == ("compute", "transfer")
    assert set(GRAY_KINDS) == {SLOWDOWN, SHM_SLOW, FLAKY_SLOWDOWN}
