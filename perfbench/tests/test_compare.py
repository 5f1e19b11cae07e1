"""The verdicts of ``python3 -m perfbench compare``."""

from __future__ import annotations

import json

from perfbench.compare import load_runs, main, verdict
from perfbench.spec import MetricDef

LOWER = MetricDef("job_wall_ms", "ms", "lower", 0.10)
HIGHER = MetricDef("jobs_per_s", "1/s", "higher", 0.10)


def test_same_within_the_bound():
    assert verdict([100, 101, 99, 100], [104, 105, 103, 104], LOWER) == "same"


def test_worse_and_better_follow_the_direction():
    a = [100, 101, 99, 100]
    assert verdict(a, [120, 121, 119, 120], LOWER) == "worse"
    assert verdict(a, [80, 81, 79, 80], LOWER) == "better"
    assert verdict(a, [120, 121, 119, 120], HIGHER) == "better"
    assert verdict(a, [80, 81, 79, 80], HIGHER) == "worse"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [80, 100, 120, 140, 90, 130]
    assert verdict(noisy, [85, 105, 125, 145, 95, 135], LOWER) == "unresolved"
    assert verdict([100, 101, 99, 100], noisy, LOWER) == "unresolved"


def test_a_clean_separation_resolves_a_noisy_metric():
    noisy = [80, 100, 120, 140]
    assert verdict(noisy, [10, 20, 30, 40], LOWER) == "better"
    assert verdict(noisy, [200, 300, 400, 500], LOWER) == "worse"


def test_few_runs_use_the_full_range():
    # three runs: (max - min) / median, not quartiles
    assert verdict([100, 100, 130], [100, 100, 100], LOWER) == "unresolved"


def _write_run(base, side, index, workload, value):
    out = base / side / f"{workload}-{index}"
    out.mkdir(parents=True)
    doc = {"workload": workload, "trace": False, "quick": False,
           "end_to_end": {"job_wall_ms": {"value": value, "unit": "ms"}}}
    (out / "metrics.json").write_text(json.dumps(doc))


def test_main_exits_nonzero_only_on_worse(tmp_path, manifest, capsys):
    for i, (a, worse, same) in enumerate([(100, 150, 101), (101, 151, 100),
                                          (99, 149, 102)]):
        _write_run(tmp_path, "a", i, "serve-read", a)
        _write_run(tmp_path, "worse", i, "serve-read", worse)
        _write_run(tmp_path, "same", i, "serve-read", same)
    assert load_runs(str(tmp_path / "a"))["serve-read"][
        "job_wall_ms"] == [100, 101, 99]
    assert main(str(tmp_path / "a"), str(tmp_path / "worse"), manifest) == 1
    assert main(str(tmp_path / "a"), str(tmp_path / "same"), manifest) == 0
    assert "worse" in capsys.readouterr().out
