"""Tests for the command-line interface."""

import pytest

from repro.cli import (ALGORITHMS, FIGURES, build_parser, main,
                       runtime_from_args)
from repro.core import MiddlewareConfig, StragglerConfig
from repro.fault import ALL_KINDS, FaultPlan


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_datasets_lists_all_six(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("orkut", "wiki-topcats", "livejournal", "wrn", "twitter",
                 "uk-2007-02"):
        assert name in out


def test_run_default_job(capsys):
    rc = main(["run", "--dataset", "wiki-topcats", "--nodes", "2",
               "--max-iterations", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "powergraph/pagerank" in out
    assert "middleware ratio" in out


def test_run_without_middleware(capsys):
    rc = main(["run", "--dataset", "wiki-topcats", "--nodes", "2",
               "--no-middleware", "--max-iterations", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "middleware ratio" not in out


def test_run_middleware_without_accelerators_errors(capsys):
    rc = main(["run", "--dataset", "wiki-topcats", "--gpus", "0"])
    assert rc == 2
    assert "accelerators" in capsys.readouterr().err


def test_run_every_algorithm(capsys):
    for alg in sorted(ALGORITHMS):
        rc = main(["run", "--algorithm", alg, "--dataset", "wiki-topcats",
                   "--nodes", "2", "--max-iterations", "2",
                   "--sources", "0"])
        assert rc == 0, alg
        assert alg.split("-")[0] in capsys.readouterr().out or True


def test_run_graphx_engine(capsys):
    rc = main(["run", "--engine", "graphx", "--dataset", "wiki-topcats",
               "--nodes", "2", "--max-iterations", "2"])
    assert rc == 0
    assert "graphx/pagerank" in capsys.readouterr().out


def test_run_ablation_flags(capsys):
    rc = main(["run", "--dataset", "wiki-topcats", "--nodes", "2",
               "--max-iterations", "2", "--no-pipeline", "--no-cache",
               "--block-size", "512"])
    assert rc == 0


def test_figure_table1(capsys):
    assert main(["figure", "table1"]) == 0
    assert "orkut" in capsys.readouterr().out


def test_figure_fig13(capsys):
    assert main(["figure", "fig13"]) == 0
    out = capsys.readouterr().out
    assert "daemon-agent" in out and "direct-call" in out


def test_figure_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_figure_fault_overhead(capsys, monkeypatch):
    """The runner, its benchmark and its oracle row always existed; the
    CLI's own figure list had simply never gained the name.  Run here
    at the figure's CI size on the smaller wiki-topcats twin."""
    import dataclasses
    from functools import partial

    figure = FIGURES["fault_overhead"]
    monkeypatch.setitem(FIGURES, "fault_overhead", dataclasses.replace(
        figure, run=partial(figure.run, dataset="wiki-topcats",
                            **figure.quick)))
    assert main(["figure", "fault_overhead"]) == 0
    out = capsys.readouterr().out
    assert out.count("resilient") == 3  # one row per paper workload


def test_all_figures_registered():
    assert set(FIGURES) == {
        "table1", "fig8", "fig9a", "fig9b", "fig9c", "fig9d", "fig10",
        "fig11a", "fig11b", "fig12a", "fig12b", "fig13", "fig14", "fig15",
        "fault_overhead", "fault_soak", "straggler_soak", "topology_soak",
        "serve_soak", "serve_chaos", "wire_chaos", "mutation_soak",
    }
    assert len(FIGURES) == 22


def test_fault_kinds_unknown_rejected_eagerly(capsys):
    rc = main(["run", "--dataset", "wiki-topcats", "--fault-seed", "3",
               "--fault-kinds", "crash", "bogus", "also-bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown fault kind(s): also-bogus, bogus" in err
    # the error teaches the valid vocabulary
    from repro.fault import ALL_KINDS
    for kind in ALL_KINDS:
        assert kind in err


def test_fault_kinds_require_seed(capsys):
    rc = main(["run", "--dataset", "wiki-topcats",
               "--fault-kinds", "crash"])
    assert rc == 2
    assert "--fault-seed" in capsys.readouterr().err


def test_fault_seed_requires_the_middleware(capsys):
    rc = main(["run", "--dataset", "wiki-topcats", "--no-middleware",
               "--fault-seed", "3"])
    assert rc == 2
    assert "--no-middleware" in capsys.readouterr().err


def test_run_gray_campaign_with_speculation(capsys, tmp_path):
    json_path = tmp_path / "gray.json"
    rc = main(["run", "--dataset", "wiki-topcats", "--nodes", "2",
               "--gpus", "2", "--max-iterations", "4",
               "--fault-seed", "5", "--fault-rate", "0.4",
               "--fault-kinds", "slowdown",
               "--trace-json", str(json_path)])
    assert rc == 0
    assert "fault report:" in capsys.readouterr().out
    import json as _json
    doc = _json.loads(json_path.read_text())
    assert doc["fault_campaign"]["kinds"] == ["slowdown"]
    assert "straggler_verdicts" in doc["summary"]
    assert "speculative_wins" in doc["summary"]


RUN_LITERALS = [
    ([], {}),
    (["--no-cache"],
     dict(sync_cache=False, lazy_upload=False, sync_skip=False)),
    (["--no-skip", "--block-size", "64"],
     dict(sync_skip=False, block_size=64)),
    (["--fault-seed", "3"],
     dict(fault_plan=FaultPlan.random(3, supersteps=10, num_nodes=4,
                                      rate=0.05, kinds=ALL_KINDS),
          checkpoint_interval=2,
          degrade_to_host=True, rebalance_on_degrade=True,
          straggler=StragglerConfig(enabled=True, reestimate=True))),
]


@pytest.mark.parametrize("flags,literal", RUN_LITERALS,
                         ids=["defaults", "no-cache", "no-skip+block",
                              "campaign"])
def test_runtime_from_args_matches_the_literal_config(flags, literal):
    """``run`` assembles its config from its flags; the result is
    field-for-field the config the flags spell."""
    args = build_parser().parse_args(["run", *flags])
    assert runtime_from_args(args) == MiddlewareConfig(**literal)


@pytest.mark.parametrize("flags", [
    ["--fault-seed", "3", "--fault-rate", "2"],
    ["--block-size", "0"],
    ["--nodes", "0"],
    ["--gpus", "-1"],
    ["--nodes", "2", "--topology", "rack:2x2"],
    ["--nodes", "4", "--topology", "rack:2x2;link=0-7:5.0:0.02"],
], ids=["fault-rate", "block-size", "nodes", "gpus", "topology-nodes",
        "link-node"])
def test_run_reports_config_errors(flags, capsys, monkeypatch):
    """A value a config refuses is a usage error, reported before any
    graph loads: exit 2, one ``error:`` line, no traceback."""
    import repro.cli.run as run_mod

    def no_load(name):
        raise AssertionError("the graph loaded before the config check")
    monkeypatch.setattr(run_mod, "load_dataset", no_load)
    rc = main(["run", "--dataset", "wiki-topcats", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_parser_defaults():
    args = build_parser().parse_args(["run"])
    assert args.algorithm == "pagerank"
    assert args.dataset == "orkut"
    assert args.nodes == 4
    assert args.gpus == 1


def test_run_async_engine(capsys):
    rc = main(["run", "--engine", "async", "--algorithm", "bfs",
               "--dataset", "wiki-topcats", "--nodes", "2",
               "--sources", "0"])
    assert rc == 0
    assert "async/bfs" in capsys.readouterr().out


def test_run_async_requires_middleware(capsys):
    rc = main(["run", "--engine", "async", "--no-middleware",
               "--dataset", "wiki-topcats"])
    assert rc == 2
    assert "middleware" in capsys.readouterr().err


def test_run_trace_export(tmp_path, capsys):
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    rc = main(["run", "--dataset", "wiki-topcats", "--nodes", "2",
               "--max-iterations", "2",
               "--trace-json", str(json_path),
               "--trace-csv", str(csv_path)])
    assert rc == 0
    assert json_path.exists() and csv_path.exists()
    import json as _json
    doc = _json.loads(json_path.read_text())
    assert doc["summary"]["iterations"] == 2


# -- serving: submit + serve ------------------------------------------------------------

def submit(jobs_file, *extra):
    return main(["submit", "--jobs-file", str(jobs_file),
                 "--graph", "wrn", "--max-iterations", "4", *extra])


def test_submit_appends_job_lines(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    assert submit(jobs, "--tenant", "alice") == 0
    assert submit(jobs, "--tenant", "bob", "--algorithm", "cc") == 0
    lines = jobs.read_text().strip().splitlines()
    assert len(lines) == 2
    import json as _json
    first = _json.loads(lines[0])
    assert first["tenant"] == "alice" and first["graph"] == "wrn"


def test_submit_validates_before_persisting(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    assert submit(jobs, "--algorithm", "nope") == 2
    assert "unknown algorithm" in capsys.readouterr().err
    assert submit(jobs, "--params", "not json") == 2
    assert submit(jobs, "--params", "[1, 2]") == 2
    assert not jobs.exists()


def test_serve_drains_jobs_and_reports(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "alice")
    submit(jobs, "--tenant", "bob")          # identical -> coalesces
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alice" in out and "bob" in out
    assert "serving session" in out
    assert "coalesced 1" in out


def test_serve_cache_hits_across_waves_in_json(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "alice")
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2"])
    assert rc == 0
    capsys.readouterr()
    # same file again in one process: fresh service, cold cache
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
               "--json"])
    assert rc == 0
    import json as _json
    doc = _json.loads(capsys.readouterr().out)
    assert doc["jobs"][0]["state"] == "done"
    assert doc["metrics"]["cache"]["misses"] >= 1


def test_serve_with_injected_crash_isolates_tenants(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "chaos", "--preset", "resilient",
           "--no-cache", "--fault-kind", "crash", "--fault-repeat", "2")
    submit(jobs, "--tenant", "alice")
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
               "--trace-dir", str(tmp_path / "traces")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("done") >= 2
    assert (tmp_path / "traces" / "job-1.json").exists()
    assert (tmp_path / "traces" / "job-2.json").exists()


def test_serve_rejects_bad_jobs_file(tmp_path, capsys):
    missing = tmp_path / "none.jsonl"
    assert main(["serve", "--jobs-file", str(missing)]) == 2
    assert "bad jobs file" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    assert main(["serve", "--jobs-file", str(empty)]) == 2
    assert "no jobs" in capsys.readouterr().err


def test_serve_rejects_bad_graph_clause(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs)
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--graph", "noequals"])
    assert rc == 2
    assert "KEY=DATASET" in capsys.readouterr().err


def test_serve_unknown_dataset_key_errors(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    main(["submit", "--jobs-file", str(jobs), "--graph", "mystery"])
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_serve_exits_nonzero_when_a_job_fails(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "chaos", "--preset", "baseline",
           "--no-cache", "--fault-kind", "crash", "--fault-repeat", "50")
    submit(jobs, "--tenant", "alice")
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "1 job(s) ended failed/quarantined: #1" in out


def test_serve_json_reports_not_ok_on_quarantine(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "chaos", "--preset", "baseline",
           "--no-cache", "--fault-kind", "crash",
           "--fault-repeat", "50", "--max-retries", "1")
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
               "--json"])
    import json as _json
    doc = _json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["ok"] is False
    assert doc["failed_jobs"] == [1]
    assert doc["jobs"][0]["state"] == "quarantined"
    assert doc["metrics"]["retries"] == 1


def test_submit_records_deadline_and_retry_fields(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    assert submit(jobs, "--deadline-ms", "500", "--max-retries", "2",
                  "--retry-backoff-ms", "3.5") == 0
    import json as _json
    rec = _json.loads(jobs.read_text().strip())
    assert rec["deadline_ms"] == 500.0
    assert rec["max_retries"] == 2 and rec["retry_backoff_ms"] == 3.5
    # bad values are rejected before anything is persisted
    assert submit(jobs, "--deadline-ms", "-1") == 2
    assert "deadline_ms" in capsys.readouterr().err
    assert len(jobs.read_text().strip().splitlines()) == 1


def test_serve_recover_requires_journal(capsys):
    assert main(["serve", "--recover"]) == 2
    assert "--journal" in capsys.readouterr().err
    assert main(["serve", "--recover", "--journal", "j.jsonl",
                 "--drain-after", "-1"]) == 2
    assert "--drain-after" in capsys.readouterr().err


def test_serve_journal_then_recover_is_a_noop(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jpath = tmp_path / "svc.jsonl"
    submit(jobs, "--tenant", "alice")
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
               "--journal", str(jpath)])
    assert rc == 0
    before = jpath.read_text()
    capsys.readouterr()
    rc = main(["serve", "--recover", "--journal", str(jpath), "--json"])
    import json as _json
    doc = _json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True
    assert doc["jobs"][0]["state"] == "done"
    assert doc["metrics"]["recovered_jobs"] == 0
    # replaying a finished journal appends nothing
    assert jpath.read_text() == before


def test_serve_recover_text_summary_names_the_recovery(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jpath = tmp_path / "svc.jsonl"
    submit(jobs, "--tenant", "alice")
    assert main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
                 "--journal", str(jpath)]) == 0
    capsys.readouterr()
    assert main(["serve", "--recover", "--journal", str(jpath)]) == 0
    out = capsys.readouterr().out
    assert ("recovered: 1 job(s) from the journal (0 re-queued, "
            "0 resumed from a checkpoint, 0 handoffs)") in out
    assert "coalesced 0" in out and "alice:" in out


def test_serve_drain_after_sheds_pending_jobs(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "alice")
    submit(jobs, "--tenant", "bob", "--algorithm", "cc")
    capsys.readouterr()
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
               "--journal", str(tmp_path / "j.jsonl"),
               "--drain-after", "0", "--json"])
    import json as _json
    doc = _json.loads(capsys.readouterr().out)
    assert rc == 0  # shed jobs are load management, not failures
    assert all(j["state"] == "cancelled" for j in doc["jobs"])
    assert all("draining" in j["error"] for j in doc["jobs"])


# -- serving over sockets: submit --connect, serve --listen ----------------------------

def _wire_server(tmp_path=None, **service_kw):
    """A live socket server on an ephemeral port, for CLI wire tests."""
    from repro.api import ClusterSpec, GraphService
    from repro.serve import GraphServiceServer

    svc = GraphService(ClusterSpec(nodes=2, gpus_per_node=1),
                       cache_entries=8, **service_kw)
    svc.load_graph("wrn", dataset="wrn")
    server = GraphServiceServer(svc)
    thread = server.serve_in_thread()
    return svc, server, thread


def test_submit_needs_a_destination(capsys):
    rc = main(["submit", "--graph", "wrn", "--max-iterations", "4"])
    assert rc == 2
    assert "--jobs-file" in capsys.readouterr().err


def test_submit_rejects_bad_connect_clause(capsys):
    rc = main(["submit", "--connect", "noport", "--graph", "wrn"])
    assert rc == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_submit_connect_submits_waits_and_dedupes(capsys):
    svc, server, thread = _wire_server()
    host, port = server.address
    try:
        rc = main(["submit", "--connect", f"{host}:{port}",
                   "--graph", "wrn", "--max-iterations", "4",
                   "--tenant", "alice", "--idempotency-key", "cli-1",
                   "--wait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "submitted as job #1" in out
        assert "job #1 done" in out

        rc = main(["submit", "--connect", f"{host}:{port}",
                   "--graph", "wrn", "--max-iterations", "4",
                   "--tenant", "alice", "--idempotency-key", "cli-1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "deduped to job #1" in out
    finally:
        server.crash()
        thread.join(timeout=10)


def test_submit_connect_dead_server_reports_backoff(capsys):
    import socket as _socket
    probe = _socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    rc = main(["submit", "--connect", f"127.0.0.1:{port}",
               "--graph", "wrn", "--max-iterations", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "backoff applied" in err


def test_serve_listen_end_to_end(tmp_path, capsys):
    import socket as _socket
    import threading as _threading

    from repro.serve import GraphClient

    probe = _socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    rcs = []
    # worker thread: signal install is skipped off the main thread
    thread = _threading.Thread(
        target=lambda: rcs.append(
            main(["serve", "--listen", f"127.0.0.1:{port}",
                  "--nodes", "2", "--graph", "g=wrn",
                  "--journal", str(tmp_path / "j.jsonl")])),
        daemon=True)
    thread.start()

    deadline = __import__("time").monotonic() + 10
    client = None
    while client is None:
        try:
            client = GraphClient("127.0.0.1", port, jitter_seed=1,
                                 connect_attempts=2,
                                 backoff_base_s=0.01)
        except Exception:
            if __import__("time").monotonic() > deadline:
                raise
    try:
        from repro.api import JobSpec
        resp = client.submit(JobSpec(graph="g", algorithm="pagerank",
                                     max_iterations=4, tenant="alice"),
                             idempotency_key="listen-1")
        assert client.wait(resp["job_id"],
                           timeout_s=30)["state"] == "done"
        client.drain()
    finally:
        client.close()
    thread.join(timeout=10)
    assert rcs == [0]
    out = capsys.readouterr().out
    assert "alice" in out and "done" in out
    assert "wire:" in out and "session(s)" in out


def test_serve_file_mode_sigterm_drains_cleanly(tmp_path, capsys,
                                               monkeypatch):
    """A signal mid-run finishes what's running, sheds the rest, and
    journals a clean shutdown naming the signal."""
    import json as _json

    from repro.api import GraphService

    jobs = tmp_path / "jobs.jsonl"
    submit(jobs, "--tenant", "alice")
    submit(jobs, "--tenant", "bob", "--algorithm", "cc")
    capsys.readouterr()

    captured = []
    monkeypatch.setattr("repro.cli._install_drain_signals",
                        captured.append)

    real_run = GraphService.run

    fired = []

    def run_then_sigterm(self, *a, **kw):
        if fired:  # drain() re-enters run() to finish what's running
            return real_run(self, *a, **kw)
        for _ in range(2):
            if not self.step():
                break
        fired.append(True)
        captured[0]("SIGTERM")  # raises _GracefulShutdown

    monkeypatch.setattr(GraphService, "run", run_then_sigterm)

    jpath = tmp_path / "j.jsonl"
    rc = main(["serve", "--jobs-file", str(jobs), "--nodes", "2",
               "--journal", str(jpath)])
    out = capsys.readouterr().out
    assert rc == 0  # drained jobs are not failures
    assert "shed: shutdown on SIGTERM" in out

    records = [_json.loads(line)
               for line in jpath.read_text().splitlines() if line]
    shutdowns = [r for r in records if r["rec"] == "shutdown"]
    assert shutdowns and shutdowns[-1]["clean"] is True
    assert shutdowns[-1]["reason"] == "sigterm"
    # a restart can pick the shed work back up from the journal
    rc = main(["serve", "--recover", "--journal", str(jpath),
               "--json"])
    doc = _json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True
    assert doc["recovery"]["recovered"] >= 1


# -- streaming mutations: repro-gxplug mutate --connect --------------------------------

def test_mutate_rejects_bad_inputs(tmp_path, capsys):
    rc = main(["mutate", "--connect", "noport", "--graph", "wrn",
               "--batch-file", str(tmp_path / "b.json")])
    assert rc == 2
    assert "HOST:PORT" in capsys.readouterr().err

    rc = main(["mutate", "--connect", "h:1", "--graph", "wrn",
               "--batch-file", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "bad batch file" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"frobnicate": {}}')
    rc = main(["mutate", "--connect", "h:1", "--graph", "wrn",
               "--batch-file", str(bad)])
    assert rc == 2
    assert "unknown mutation batch field" in capsys.readouterr().err


def test_mutate_connect_applies_then_dedupes(tmp_path, capsys):
    import json as _json

    batch_file = tmp_path / "batch.json"
    batch_file.write_text(_json.dumps(
        {"add": {"src": [0], "dst": [5]}}))
    svc, server, thread = _wire_server()
    host, port = server.address
    try:
        args = ["mutate", "--connect", f"{host}:{port}",
                "--graph", "wrn", "--batch-file", str(batch_file),
                "--idempotency-key", "cli-mut-1"]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "applied 1 change(s)" in out
        assert "v1 -> v2" in out

        rc = main(args)          # replay: exactly once
        out = capsys.readouterr().out
        assert rc == 0
        assert "already applied" in out
        assert svc.store.get("wrn").version == 2
    finally:
        server.crash()
        thread.join(timeout=10)
