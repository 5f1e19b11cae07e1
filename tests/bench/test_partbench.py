"""``repro-gxplug bench --profile partition*``: the set-up rung."""

import json

from repro.bench.hotpath import BENCH_SCHEMA
from repro.bench.partbench import run_partition_bench
from repro.cli import main

SMALL = ["--vertices", "400", "--edges", "3000"]


def test_payload_times_both_share_settings_on_one_graph():
    payload = run_partition_bench(400, 3000, 4, repeats=2)
    rows = payload["results"]
    assert set(rows) == {"equal", "unequal"}
    assert rows["unequal"]["shares"] == [4.0, 3.0, 2.0, 1.0]
    for row in rows.values():
        assert sum(row["edge_counts"]) == payload["params"]["edges"]
        assert row["placed_edges_per_sec"] > 0
    # equal shares keep every node within one edge of the others
    counts = rows["equal"]["edge_counts"]
    assert max(counts) - min(counts) <= 1
    agg = payload["aggregate"]
    assert agg["placed_edges"] == 2 * payload["params"]["edges"]
    assert "edges_per_sec" not in agg


def test_placement_digest_is_deterministic():
    a = run_partition_bench(300, 2000, 3)["results"]
    b = run_partition_bench(300, 2000, 3)["results"]
    assert {k: r["placement_sha256"] for k, r in a.items()} == \
        {k: r["placement_sha256"] for k, r in b.items()}


def test_cli_writes_then_gates_an_entry(tmp_path, capsys):
    path = tmp_path / "bench.json"
    # a hot-path pre_pr baseline: its edges/s is another unit, so the
    # partition entry must not be annotated against it
    path.write_text(json.dumps({"schema": BENCH_SCHEMA, "entries": {
        "pre_pr": {"aggregate": {"edges_per_sec": 1.0}}}}))
    assert main(["bench", "--profile", "partition-smoke", *SMALL,
                 "--json", str(path)]) == 0
    entry = json.loads(path.read_text())["entries"]["partition-smoke"]
    assert entry["bench"] == "partition"
    assert entry["params"]["nodes"] == 2
    assert "speedup_vs_pre_pr" not in entry
    assert main(["bench", "--profile", "partition-smoke", *SMALL,
                 "--nodes", "2", "--check", str(path),
                 "--max-regression", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "placed edges/s" in out
    assert "throughput check [partition-smoke]" in out
