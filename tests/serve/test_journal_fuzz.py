"""Journal lines at the byte level: every line of a scripted journal
flipped, cut short and grown, then read and recovered.

The script (a keyed submit, a cache hit, a mutation, checkpoints, a
cancel and a drain that sheds) writes every record kind but
``retry``, ``failed``, ``quarantined`` and ``shed``.  Each line takes, at
ten seeded positions (its first and last byte among them), a one-bit
flip, a cut that keeps its newline, and an inserted ``\\n``, ``0``,
space or ``x``; its newline is flipped too.  Every damaged journal
ends one of three ways:

* a :class:`ServeError` naming the damaged line (an inserted newline
  may leave the error on the line it split off): ``read_journal``
  refuses what does not parse, a blank line, a missing or mistyped
  field and a field no transition takes; ``recover()`` names the
  ``service_start`` line whose settings the constructor refuses, and
  replay the line whose record it cannot apply, a ``submitted`` spec
  with a field name its class never retired among them;
* the torn-tail drop, only when the final line lost its newline: the
  records before it, nothing else;
* a journal that parses and recovers with every record still there.

No record is ever skipped: a damaged line never reads as a blank line
or a torn tail in the middle of the file.

The silent class is damage that still parses into another valid
history; nothing short of a per-record checksum can see it.  Of the
1 745 cases over the script's 29 lines, 1 518 end in an error naming
the line (1 426 from ``read_journal``, 92 from ``recover()``: 65 of
them a damaged field name inside a ``submitted`` record's spec), 1 in
the torn drop, 132 in records identical to the original (a space
between JSON tokens), and 94 silently:

* a digit that became another digit or gained a ``0`` (``now_ms``,
  ``iteration``, a version, a setting): 26;
* a character of free text (an ``error``, a ``reason``, an idempotency
  key) or of a ``cache_key``: 30;
* a sidecar ``file`` name: the answer or checkpoint reads as gone, so
  the job recomputes or restarts, the rule for a lost sidecar: 38.

A second test cuts the file inside every line and recovers twice: the
first recovery cuts the torn tail, so the records it appends start
lines of their own.
"""

import random
import re
import shutil

import pytest

from repro.api import ClusterSpec, GraphService, JobSpec
from repro.errors import ServeError
from repro.graph import rmat
from repro.graph.mutations import MutationBatch
from repro.serve.journal import read_journal

G = rmat(24, 96, seed=4)
GRAPHS = {"g": G}
POSITIONS = 8           # seeded positions per line, plus its two ends
INSERTS = (b"\n", b"0", b" ", b"x")


def script(path):
    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1), journal=path,
                       max_running=1, journal_checkpoint_interval=1)
    svc.load_graph("g", G)
    svc.submit(JobSpec(graph="g", algorithm="cc"), idempotency_key="k-1")
    svc.run()
    svc.submit(JobSpec(graph="g", algorithm="cc", tenant="hit"))
    svc.run()
    svc.mutate("g", MutationBatch(add_src=[0], add_dst=[17]))
    svc.submit(JobSpec(graph="g", algorithm="pagerank", max_iterations=4,
                       use_cache=False))
    queued = svc.submit(JobSpec(graph="g", algorithm="bfs"))
    for _ in range(3):
        svc.step()
    svc.cancel(queued.job_id)
    svc.submit(JobSpec(graph="g", algorithm="sssp-bf"))
    svc.drain()


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """The scripted journal's lines, its records, and a working copy
    (sidecars included) that each case overwrites."""
    base = tmp_path_factory.mktemp("fuzz")
    script(str(base / "live.jsonl"))
    shutil.copytree(base / "live.jsonl.d", base / "work.jsonl.d")
    data = (base / "live.jsonl").read_bytes()
    return data.split(b"\n")[:-1], read_journal(str(base / "live.jsonl")), \
        base / "work.jsonl"


def damaged(lines, i, line):
    """The journal with line ``i`` replaced by ``line`` (its newline
    included, or not)."""
    return b"".join([*(l + b"\n" for l in lines[:i]), line,
                     *(l + b"\n" for l in lines[i + 1:])])


def cases(lines):
    """``(line index, damaged line, how)`` for every line."""
    for i, line in enumerate(lines):
        rng = random.Random(i)
        spots = sorted({0, len(line) - 1,
                        *rng.sample(range(len(line)), POSITIONS)})
        for p in spots:
            flipped = bytearray(line)
            flipped[p] ^= 1 << rng.randrange(8)
            yield i, bytes(flipped) + b"\n", "flip"
            yield i, line[:p] + b"\n", "cut"
            for byte in INSERTS:
                yield i, line[:p] + byte + line[p:] + b"\n", "insert"
        yield i, line + bytes([ord("\n") ^ 1 << rng.randrange(8)]), "flip"


def outcome(work, records, i, line):
    """How reading and recovering the journal at ``work``, whose line
    ``i`` is damaged into ``line``, ended."""
    try:
        got = read_journal(str(work))
        GraphService.recover(str(work), graphs=GRAPHS)
    except ServeError as exc:
        named = re.search(r"line (\d+)", str(exc))
        assert named and int(named.group(1)) in (i + 1, i + 2), \
            f"line {i + 1}: {exc}"
        return "named"
    if len(got) == len(records) - 1:
        assert i == len(records) - 1 and not line.endswith(b"\n"), \
            f"line {i + 1} skipped"
        assert got == records[:-1]
        return "torn"
    assert len(got) == len(records), f"line {i + 1}: a record skipped"
    return "same" if got == records else "silent"


def test_every_damaged_line_is_named_torn_or_recovered(journal):
    lines, records, work = journal
    assert {"service_start", "graph_loaded", "mutation", "idempotency",
            "submitted", "admitted", "slice", "checkpointed", "finished",
            "cancelled", "shutdown"} <= {r["rec"] for r in records}
    tally = {}
    for i, line, how in cases(lines):
        work.write_bytes(damaged(lines, i, line))
        end = outcome(work, records, i, line)
        tally[how, end] = tally.get((how, end), 0) + 1
    # every outcome the docstring tallies was met, and every line
    # was refused at least once
    assert {end for _, end in tally} == {"named", "torn", "same",
                                         "silent"}
    assert tally["cut", "named"] >= len(lines)


def test_a_torn_tail_is_cut_before_the_next_append(journal):
    """Recover a journal cut inside each line, append, recover again:
    the second recovery reads every record the first one wrote."""
    lines, records, work = journal
    whole = b"".join(line + b"\n" for line in lines)
    for i, line in enumerate(lines):
        start = sum(len(before) + 1 for before in lines[:i])
        for cut in (1, len(line) // 2, len(line)):
            work.write_bytes(whole[:start + cut])
            if i == 0:
                with pytest.raises(ServeError, match="no service_start"):
                    GraphService.recover(str(work), graphs=GRAPHS)
                continue
            rec = GraphService.recover(str(work), graphs=GRAPHS)
            assert read_journal(str(work)) == records[:i]
            rec.journal.append("shed", rec.now_ms, tenant="t",
                               reason="probe")
            rec.journal.close()
            again = read_journal(str(work))
            assert again[:i] == records[:i]
            assert again[i]["reason"] == "probe"
            GraphService.recover(str(work), graphs=GRAPHS)
