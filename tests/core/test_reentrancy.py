"""Back-to-back runs in one process must be perfectly repeatable.

The serving layer keeps one Python process alive across many jobs, so
nothing middleware-scoped may leak through module or class globals
between ``deploy()`` calls: daemon ids (and therefore SysV key layouts),
simulated costs and values must all come out identical run over run.
"""

import numpy as np

from repro.algorithms import PageRank
from repro.api import FULL, ClusterSpec, MiddlewareConfig, deploy
from repro.core.daemon import DAEMON_KEY_BASE
from repro.engines import PowerGraphEngine
from repro.fault import CRASH, FaultPlan
from repro.graph import load_dataset


def _deploy_and_run(config=FULL):
    plug = deploy(ClusterSpec(nodes=2, gpus_per_node=2), config)
    engine = PowerGraphEngine.build(load_dataset("wrn"), plug.cluster,
                                    middleware=plug)
    result = engine.run(PageRank(), max_iterations=8)
    return plug, result


def daemon_ids(plug):
    return [d.daemon_id for node_id in sorted(plug.agents)
            for d in plug.agents[node_id].daemons]


def test_daemon_ids_restart_from_zero_every_deploy():
    first, _ = _deploy_and_run()
    second, _ = _deploy_and_run()
    assert daemon_ids(first) == [0, 1, 2, 3]
    assert daemon_ids(second) == [0, 1, 2, 3]
    # ... and the SysV key layout is the same table both times
    assert [d.key for a in second.agents.values() for d in a.daemons] == \
        [DAEMON_KEY_BASE + i for i in range(4)]


def test_back_to_back_runs_are_bit_identical():
    _, first = _deploy_and_run()
    _, second = _deploy_and_run()
    assert np.array_equal(first.values, second.values)
    assert first.total_ms == second.total_ms
    assert first.iterations == second.iterations
    assert [s.total_ms for s in first.stats] == \
        [s.total_ms for s in second.stats]


def test_faulted_run_does_not_perturb_the_next_deploy():
    _, clean_before = _deploy_and_run()
    plan = FaultPlan.single(CRASH, superstep=1, node_id=0, repeat=5)
    faulted_cfg = (MiddlewareConfig.preset("resilient")
                   .with_(fault_plan=plan))
    plug, faulted = _deploy_and_run(faulted_cfg)
    assert not plug.fault_report(faulted).clean
    # the faulted deployment's daemon ids were still 0..3, and the next
    # clean deployment is bit-identical to the one before the fault
    assert daemon_ids(plug) == [0, 1, 2, 3]
    _, clean_after = _deploy_and_run()
    assert np.array_equal(clean_before.values, clean_after.values)
    assert clean_before.total_ms == clean_after.total_ms
