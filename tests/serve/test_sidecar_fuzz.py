"""Hostile bytes in a result sidecar, through both of its readers.

A journaled service reads a computed answer back from its result
sidecar in two places: a lookup of a spilled cache entry (inside
``step()``), and ``recover()`` replaying the ``finished`` record that
names the file.  Each case damages the sidecar of a computed PageRank
answer: truncated at header, member-directory and payload offsets, one
byte flipped, emptied, missing with its ``.tmp`` left behind, beside a
junk ``.tmp``, or rewritten whole around a values array one vertex
short or long.  Every outcome must be the intact answer, a miss that
recomputes byte-identical values, or a ``ServeError`` out of
``recover()``: never a wrong answer, and never another exception.
"""

import io
import shutil
import struct
import zipfile

import numpy as np
import pytest

from repro.api import ClusterSpec, GraphService, JobSpec
from repro.errors import ServeError
from repro.graph import rmat

SPEC = ClusterSpec(nodes=2, gpus_per_node=1)
G = rmat(32, 128, seed=3)
ANSWER = JobSpec(graph="g", algorithm="pagerank", max_iterations=5)
OTHER = JobSpec(graph="g", algorithm="cc")
#: every STRIDE-th byte is flipped through both readers (every byte is
#: flipped through the reader they share, below)
STRIDE = 41


def serve(path):
    """A journaled service whose one-entry cache computed ANSWER, then
    spilled it computing OTHER."""
    svc = GraphService(SPEC, cache_entries=1, journal=str(path))
    svc.load_graph("g", G)
    for spec in (ANSWER, OTHER):
        svc.submit(spec)
        svc.run()
    return svc


def answer_key(svc):
    return svc.cache.key("g", 1, "pagerank", ANSWER.cache_params())


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """A journal that computed ANSWER, spilled it and hit it again, its
    sidecar's bytes, and the answer's bytes and iteration count."""
    path = tmp_path_factory.mktemp("golden") / "svc.jsonl"
    svc = serve(path)
    svc.submit(ANSWER)
    svc.run()
    assert svc.cache.stats()["reloads"] == 1
    svc.journal.close()
    first = svc.job(1)
    with open(f"{path}.d/{first.result_file}", "rb") as f:
        data = f.read()
    return path, first.result_file, data, (first.values.tobytes(),
                                           first.result.iterations)


def payload_end(data, info):
    """The offset just past ``info``'s stored bytes in ``data``."""
    name_len, extra_len = struct.unpack_from("<HH", data,
                                             info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len + info.compress_size


def flipped(data, at):
    out = bytearray(data)
    out[at] ^= 0xFF
    return bytes(out)


def with_values(data, values_of):
    """``data``'s sidecar rewritten whole, values replaced."""
    with np.load(io.BytesIO(data)) as doc:
        arrays = {name: doc[name] for name in doc.files}
    arrays["values"] = values_of(arrays["values"])
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


def cases(data):
    """``(label, sidecar bytes or None for missing, .tmp bytes or
    None)`` for every damage this file checks."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        members = zf.infolist()
    values = members[0]
    start = payload_end(data, values) - values.compress_size
    directory = payload_end(data, members[-1])
    cuts = {"header": (1, 4, 17, 29),
            "payload": (start, start + values.compress_size // 2,
                        payload_end(data, values) - 1),
            "member directory": (directory, directory + 30,
                                 len(data) - 22, len(data) - 1)}
    out = [("emptied", b"", None),
           ("missing, its .tmp left", None, data),
           ("beside a junk .tmp", data, b"PK\x03\x04 killed mid-write"),
           ("one vertex short", with_values(data, lambda v: v[:-1]), None),
           ("one vertex long",
            with_values(data, lambda v: np.append(v, 0.0)), None)]
    out += [(f"truncated in the {where} at {at}", data[:at], None)
            for where, offsets in cuts.items() for at in offsets]
    out += [(f"byte {at} flipped", flipped(data, at), None)
            for at in range(0, len(data), STRIDE)]
    return out


def place(path, damaged, tmp):
    """Write a case's sidecar (None: no file) and ``.tmp`` at ``path``."""
    path.unlink(missing_ok=True)
    if damaged is not None:
        path.write_bytes(damaged)
    if tmp is not None:
        path.with_name(path.name + ".tmp").write_bytes(tmp)


def test_a_spilled_hit_on_a_damaged_sidecar_serves_it_intact_or_recomputes(
        tmp_path, golden):
    _, _, data, (ref, iterations) = golden
    svc = serve(tmp_path / "svc.jsonl")
    key = answer_key(svc)
    outcomes = set()
    for label, damaged, tmp in cases(data):
        path = tmp_path / "svc.jsonl.d" / svc.cache._spilled[key].file
        place(path, damaged, tmp)
        reloads = svc.cache.stats()["reloads"]
        job = svc.submit(ANSWER)
        svc.run()                      # raises nothing
        assert job.state == "done", label
        assert job.values.tobytes() == ref, label
        assert job.result.iterations == iterations, label
        reloaded = svc.cache.stats()["reloads"] > reloads
        assert job.from_cache == reloaded, label
        outcomes.add(job.from_cache)
        place(path, data, None)
        path.with_name(path.name + ".tmp").unlink(missing_ok=True)
        svc.check_invariants()
        svc.submit(OTHER)              # a reload: ANSWER spills again
        svc.run()
        assert key in svc.cache._spilled, label
    assert outcomes == {True, False}   # both a reload and a recompute


def test_recover_over_a_damaged_sidecar_serves_it_intact_recomputes_or_refuses(
        tmp_path, golden):
    journal, file, data, (ref, iterations) = golden
    outcomes = set()
    for i, (label, damaged, tmp) in enumerate(cases(data)):
        work = tmp_path / f"case-{i}.jsonl"
        shutil.copyfile(journal, work)
        shutil.copytree(f"{journal}.d", f"{work}.d")
        place(tmp_path / f"case-{i}.jsonl.d" / file, damaged, tmp)
        try:
            rec = GraphService.recover(str(work), graphs={"g": G})
        except ServeError:
            outcomes.add("refused")
            continue
        outcomes.add(rec.metrics()["recovered_jobs"] > 0)
        rec.submit(ANSWER)             # through the recovered cache too
        rec.run()
        answers = rec.jobs(state="done")
        assert len(answers) == 4, label
        for job in answers:
            if job.spec.algorithm == "pagerank":
                assert job.values.tobytes() == ref, label
                assert job.result.iterations == iterations, label
    assert {True, False} <= outcomes   # some recomputed, some served


def test_every_single_byte_flip_reads_back_intact_or_not_at_all(
        tmp_path, golden):
    """Every byte of the sidecar flipped, through the reader both paths
    share: the answer it held, or None (a miss)."""
    journal, file, data, (ref, iterations) = golden
    shutil.copytree(f"{journal}.d", tmp_path / "svc.jsonl.d")
    shutil.copyfile(journal, tmp_path / "svc.jsonl")
    svc = GraphService.recover(str(tmp_path / "svc.jsonl"),
                               graphs={"g": G})
    path = tmp_path / "svc.jsonl.d" / "fuzz.npz"
    intact = 0
    for at in range(len(data)):
        path.write_bytes(flipped(data, at))
        got = svc._read_answer(1, "fuzz.npz", G)
        if got is not None:
            assert got.values.tobytes() == ref, at
            assert got.iterations == iterations, at
            intact += 1
    assert 0 < intact < len(data)
