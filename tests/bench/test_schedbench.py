"""``repro-gxplug bench --profile scheduler``: the event-loop rung."""

import pytest

import repro.bench.schedbench as schedbench
from repro.errors import BenchmarkError


def test_passes_end_at_the_pipeline_makespan():
    payload = schedbench.run_scheduler_bench(5, 4, repeats=2)
    row = payload["results"]["handshake"]
    # the four passes pop identical event streams; one agent-daemon
    # pair keeps the heap at the depth a measured agent pass reaches
    assert row["events_popped"] % 4 == 0 and row["events_popped"] > 0
    assert row["heap_peak"] == 3
    assert payload["aggregate"]["events_per_sec"] == row["events_per_sec"]
    lines = schedbench.format_scheduler_report(payload)
    assert "4 agent passes x 5 blocks" in lines[0]


def test_an_off_makespan_fails_the_bench(monkeypatch):
    closed_form = schedbench.pipeline_makespan_from_stage_times
    monkeypatch.setattr(schedbench, "pipeline_makespan_from_stage_times",
                        lambda *times: closed_form(*times) + 0.5)
    with pytest.raises(BenchmarkError, match="pipeline makespan"):
        schedbench.run_scheduler_bench(3, 1)


def test_sizes_must_be_positive():
    with pytest.raises(BenchmarkError, match="positive sizes"):
        schedbench.run_scheduler_bench(0, 1)
    with pytest.raises(BenchmarkError, match="repeats"):
        schedbench.run_scheduler_bench(1, 1, repeats=0)
