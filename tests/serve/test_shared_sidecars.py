"""Cache hits share their answer's result sidecar, across crashes.

A hit journals ``finished`` with the ``file`` of the run that computed
its answer and writes no sidecar of its own.  :func:`write_journal`
builds a one-entry journaled service on the wiki-topcats twin: one
computed pagerank, a waiter coalesced behind it, three hits, a cc run
that evicts the pagerank entry, and a pagerank left in flight with a
checkpoint — then abandons it without ``drain``.

``journal-shared-sidecars`` under ``tests/serve/data`` (with its ``.d``
sidecar directory) is that journal as this format first wrote it;
``python tests/serve/test_shared_sidecars.py DIR`` writes a fresh one.
"""

import os
import shutil
import sys
from pathlib import Path

from repro.api import ClusterSpec, GraphService, JobSpec

DATA = Path(__file__).parent / "data"
SPEC = ClusterSpec(nodes=2, gpus_per_node=1)
PAGERANK = JobSpec(graph="g", algorithm="pagerank", max_iterations=4)
CC = JobSpec(graph="g", algorithm="cc")
#: job id -> its spec, in submit order
JOBS = {1: PAGERANK, 2: PAGERANK, 3: PAGERANK, 4: PAGERANK, 5: PAGERANK,
        6: CC, 7: JobSpec(graph="g", algorithm="pagerank",
                          max_iterations=10, use_cache=False)}
COMPUTED = {1: "job-1-result.npz", 6: "job-6-result.npz"}
#: the jobs served from job 1's answer (2 waited on its run)
HITS = (2, 3, 4, 5)


def write_journal(path):
    """Run :data:`JOBS` on a journaled service, then drop it mid-flight."""
    svc = GraphService(SPEC, journal=str(path), cache_entries=1)
    svc.load_graph("g", dataset="wiki-topcats")
    svc.submit(JOBS[1])
    svc.submit(JOBS[2])
    svc.run()
    assert svc.metrics()["coalesced"] == 1
    for job_id in (3, 4, 5, 6):
        svc.submit(JOBS[job_id])
    svc.run()
    svc.submit(JOBS[7])
    for _ in range(5):
        svc.step()
    cache = svc.cache.stats()
    assert cache["hits"] == len(HITS) and cache["evictions"] == 1
    assert svc.job(7).state == "running"
    svc.journal.close()                  # killed: no drain, no shutdown


def uninterrupted():
    svc = GraphService(SPEC)
    svc.load_graph("g", dataset="wiki-topcats")
    jobs = {job_id: svc.submit(spec) for job_id, spec in JOBS.items()}
    svc.run()
    return jobs


def check_recovery(jpath):
    before = os.path.getsize(jpath)
    rec = GraphService.recover(str(jpath))
    recovery = rec.metrics()["recovery"]
    assert recovery["recovered"] - recovery["requeued"] == (
        len(COMPUTED) + len(HITS))
    assert recovery["requeued"] == 1 and recovery["resumed"] == 1
    for job_id in HITS:
        job = rec.job(job_id)
        assert job.from_cache and job.result_file == COMPUTED[1]
        assert job.values.tobytes() == rec.job(1).values.tobytes()
    # one result sidecar per computed job, none per hit
    assert sorted(n for n in os.listdir(f"{jpath}.d")
                  if n.endswith("-result.npz")) == sorted(COMPUTED.values())
    # a second recovery appends nothing
    GraphService.recover(str(jpath))
    assert os.path.getsize(jpath) == before
    return rec


def test_hits_share_the_computed_sidecar_across_a_crash(tmp_path):
    jpath = tmp_path / "shared.jsonl"
    write_journal(jpath)
    rec = check_recovery(jpath)
    rec.run()
    # the in-flight job's own sidecar joins the computed ones
    assert sorted(n for n in os.listdir(f"{jpath}.d")
                  if n.endswith("-result.npz")) == sorted(
        [*COMPUTED.values(), "job-7-result.npz"])
    for job_id, job in uninterrupted().items():
        assert rec.job(job_id).values.tobytes() == job.values.tobytes()


def test_shared_sidecar_corpus_recovers_to_uninterrupted_values(tmp_path):
    jpath = tmp_path / "journal-shared-sidecars.jsonl"
    shutil.copy(DATA / jpath.name, jpath)
    shutil.copytree(DATA / f"{jpath.name}.d", f"{jpath}.d")
    rec = check_recovery(jpath)
    rec.run()
    for job_id, job in uninterrupted().items():
        assert rec.job(job_id).state == "done"
        assert rec.job(job_id).values.tobytes() == job.values.tobytes()


if __name__ == "__main__":
    out = Path(sys.argv[1]) / "journal-shared-sidecars.jsonl"
    write_journal(out)
    print(out)
