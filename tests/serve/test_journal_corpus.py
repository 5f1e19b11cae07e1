"""Journals written by older code still recover.

Each journal under ``tests/serve/data`` (with its ``.d`` sidecar
directory) was written by the code at the commit its name carries, then
abandoned mid-flight.  ``journal-137dbc5`` holds the three
``resilient``-preset jobs of :func:`corpus_jobs` on the wiki-topcats
twin: one finished (result sidecar), two in flight with checkpoint
sidecars.  Its runtime docs carry every ``MiddlewareConfig`` and
``StragglerConfig`` field of that commit, including those retired
since.  It was written by::

    svc = GraphService(SPEC, journal=path)
    svc.load_graph("g", dataset="wiki-topcats")
    for spec in corpus_jobs():
        svc.submit(spec)
    for _ in range(8):
        svc.step()
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.api import (RESILIENT, ClusterSpec, GraphService, JobSpec,
                       RuntimeConfig)

DATA = Path(__file__).parent / "data"
SPEC = ClusterSpec(nodes=2, gpus_per_node=1)


def corpus_jobs():
    runtime = RuntimeConfig.preset("resilient")
    return [JobSpec(graph="g", algorithm="pagerank", tenant="a",
                    use_cache=False, max_iterations=10, runtime=runtime),
            JobSpec(graph="g", algorithm="cc", tenant="b",
                    use_cache=False, runtime=runtime),
            JobSpec(graph="g", algorithm="pagerank", tenant="c",
                    use_cache=False, max_iterations=2, runtime=runtime)]


@pytest.mark.parametrize("name", ["journal-137dbc5"])
def test_old_journal_recovers_to_uninterrupted_values(tmp_path, name):
    jpath = tmp_path / f"{name}.jsonl"
    shutil.copy(DATA / f"{name}.jsonl", jpath)
    shutil.copytree(DATA / f"{name}.jsonl.d", f"{jpath}.d")
    rec = GraphService.recover(str(jpath))
    recovery = rec.metrics()["recovery"]
    assert recovery["requeued"] == 2
    assert recovery["resumed"] == 2
    assert recovery["recovered"] - recovery["requeued"] == 1
    assert rec.job(1).spec.runtime == RESILIENT
    rec.run()

    base = GraphService(SPEC)
    base.load_graph("g", dataset="wiki-topcats")
    uninterrupted = [base.submit(spec) for spec in corpus_jobs()]
    base.run()
    for job in uninterrupted:
        recovered = rec.job(job.job_id)
        assert recovered.state == "done"
        assert np.array_equal(recovered.values, job.values)
