"""Every workload, run in ``--quick`` mode: what it emits, that it
repeats, and that its span tree is sound."""

from __future__ import annotations

import json
import os

import pytest

from perfbench.spec import load_manifest
from perfbench.trace import check_spans

WORKLOADS = load_manifest().workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(quick_runs, manifest,
                                               workload):
    for trace, defs in ((False, manifest.end_to_end),
                        (True, manifest.per_layer)):
        result, doc, _ = quick_runs[(workload, trace)]
        assert doc["quick"] is True
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m.name for m in defs}
        for m in defs:
            assert result["metrics"][m.name]["unit"] == m.unit
    untraced = quick_runs[(workload, False)][0]["metrics"]
    assert all(m["value"] > 0 for m in untraced.values()), untraced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats(quick_runs, workload):
    """The traced and the untraced run share a seed and a schedule:
    digests, operation counts and simulated ms must be identical."""
    _, a, _ = quick_runs[(workload, False)]
    _, b, _ = quick_runs[(workload, True)]
    for key in ("schedule_sha256", "values_sha256"):
        assert a["detail"][key] == b["detail"][key], key
    assert a["detail"]["values_sha256"]
    assert a["attempted"] == b["attempted"]
    assert a["detail"]["jobs"] == b["detail"]["jobs"]
    assert (a["end_to_end"]["sim_ms"]["value"]
            == b["end_to_end"]["sim_ms"]["value"])
    if workload == "serve-churn":
        for key in ("churn_kinds", "final_version"):
            assert a["detail"][key] == b["detail"][key], key


def test_seconds_scale_the_schedule():
    from perfbench.spec import FULL, sizes
    full = sizes("serve-churn", False, 20, 20)
    assert full == FULL["serve-churn"]
    half = sizes("serve-churn", False, 10, 20)
    assert (half["cycles"], half["kill_cycles"]) == (8, 2)
    assert half["graphs"] == full["graphs"]
    assert sizes("batch-compute", False, 1, 20)["rounds"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(quick_runs, workload):
    _, doc, out = quick_runs[(workload, True)]
    with open(os.path.join(out, "trace.json"), encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["processes"]
    for proc in trace["processes"]:
        assert check_spans(proc["spans"]) == [], proc["proc"]
    layer = doc["per_layer"]
    assert layer["trace.spans"]["value"] == sum(
        len(p["spans"]) for p in trace["processes"])
    assert 0 <= layer["trace.unattributed_share"]["value"] <= 1


def test_workloads_separate_the_layers(quick_runs):
    def layer(workload):
        return {k: v["value"]
                for k, v in quick_runs[(workload, True)][1]["per_layer"]
                .items()}
    for workload in ("batch-compute", "batch-cachebound"):
        values = layer(workload)
        assert all(v == 0 for k, v in values.items()
                   if k.startswith("serve.")), workload
        assert values["engines.supersteps"] > 0
    assert layer("batch-compute")["core.sync_cache.evictions"] == 0
    assert layer("batch-cachebound")["core.sync_cache.evictions"] > 0
    read, churn = layer("serve-read"), layer("serve-churn")
    assert read["graph.mutation_apply_calls"] == 0
    assert read["serve.store.partition_deltas"] == 0
    assert read["serve.cache.hits"] > 0
    assert churn["graph.mutation_apply_calls"] > 0
    assert churn["serve.store.partition_deltas"] > 0
    assert churn["serve.service.warm_starts"] > 0
    assert churn["serve.service.warm_refused"] > 0
    assert churn["serve.journal.replay_s"] > 0
    assert churn["serve.client.recover_s"] > 0
