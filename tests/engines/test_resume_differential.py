"""Resumed == uninterrupted, at every checkpoint of every run.

Every resume path of the serving layer (journaled recovery,
checkpoint-resume retries) enters through
``run_stepwise(resume_from=...)``, and it is only sound if a run resumed
from any durable resume point ends exactly where the uninterrupted run
does.  For every engine x algorithm, one uninterrupted run checkpoints
every superstep; a fresh cluster then resumes from each checkpoint of a
superstep that did not converge (a converged superstep's checkpoint is
not a resume point, see ``StepEvent.checkpointed``) and must reproduce
the value bytes, the iteration count and the convergence verdict.
"""

import pytest

from repro import RESILIENT, GXPlug, make_cluster
from repro.algorithms import ALGORITHMS
from repro.engines import ENGINES, AsyncEngine
from repro.errors import EngineError
from repro.graph import rmat

GRAPH = rmat(300, 2400, seed=5)
CONFIG = RESILIENT.with_(checkpoint_interval=1)
CAP = 12
PARAMS = {"kcore": {"k": 3}}
#: what the asynchronous model refuses: not replay-safe (monotone)
NOT_REPLAY_SAFE = {"pagerank", "lp", "kcore"}


def stepper(engine_cls, algorithm_name, resume_from=None):
    """(engine, its run_stepwise generator) on a fresh 2-node cluster."""
    cluster = make_cluster(2, gpus_per_node=1)
    engine = engine_cls.build(GRAPH, cluster,
                              middleware=GXPlug(cluster, CONFIG))
    algorithm = ALGORITHMS[algorithm_name](**PARAMS.get(algorithm_name, {}))
    return engine, engine.run_stepwise(algorithm, CAP,
                                       resume_from=resume_from)


def run_to_end(steps, on_event=lambda event: None):
    while True:
        try:
            on_event(next(steps))
        except StopIteration as stop:
            return stop.value


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_resumed_run_ends_where_the_uninterrupted_one_does(
        engine_name, algorithm_name):
    engine_cls = ENGINES[engine_name]
    if engine_cls is AsyncEngine and algorithm_name in NOT_REPLAY_SAFE:
        with pytest.raises(EngineError, match="not replay-safe"):
            stepper(engine_cls, algorithm_name)
        return
    engine, steps = stepper(engine_cls, algorithm_name)
    resume_points = []

    def note(event):
        if event.checkpointed and not event.converged:
            resume_points.append(engine.checkpoint_store.peek())

    whole = run_to_end(steps, note)
    assert resume_points
    for ckpt in resume_points:
        resumed = run_to_end(stepper(engine_cls, algorithm_name,
                                     resume_from=ckpt)[1])
        where = f"resumed at superstep {ckpt.iteration}"
        assert resumed.values.tobytes() == whole.values.tobytes(), where
        assert resumed.iterations == whole.iterations, where
        assert resumed.converged == whole.converged, where
