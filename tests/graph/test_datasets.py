"""Tests for the Table I dataset twins."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    DATASETS,
    DEFAULT_DATASET,
    dataset_names,
    load_dataset,
    load_synthetic_clustered,
    load_synthetic_uniform,
)


def test_all_six_table1_datasets_present():
    assert dataset_names() == [
        "orkut", "wiki-topcats", "livejournal", "wrn", "twitter", "uk-2007-02",
    ]


def test_default_is_orkut_highest_degree():
    """Paper: 'By default, Orkut is used, since it has the highest vertex
    degree among the 6' — true of the metadata ratios (excluding the two
    larger graphs used only for scalability? No: Orkut's |E|/|V| is the
    max of all six)."""
    assert DEFAULT_DATASET == "orkut"
    ratios = {name: spec.average_degree for name, spec in DATASETS.items()}
    assert max(ratios, key=ratios.get) == "orkut"


def test_paper_sizes_match_table1():
    ork = DATASETS["orkut"]
    assert ork.paper_vertices == 3_072_441
    assert ork.paper_edges == 117_185_083
    tw = DATASETS["twitter"]
    assert round(tw.paper_edges / 1e9, 3) == 1.468


def test_scaled_twins_preserve_degree_ratio():
    for name, spec in DATASETS.items():
        g = load_dataset(name)
        paper_ratio = spec.average_degree
        twin_ratio = g.average_degree()
        # twins should be within 2x of the paper's |E|/|V| ratio
        assert twin_ratio == pytest.approx(paper_ratio, rel=1.0), name


def test_twins_are_deterministic():
    assert load_dataset("orkut") == DATASETS["orkut"].build()


def test_twins_are_built_once_and_shared_read_only():
    twin = load_dataset("wrn")
    assert load_dataset("wrn") is twin
    for arr in (twin.indptr, twin.src, twin.dst, twin.weights):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert DATASETS["wrn"].build() is not twin   # a private copy


def test_twitter_and_uk_are_the_two_largest():
    sizes = {name: load_dataset(name).num_edges for name in dataset_names()}
    ordered = sorted(sizes, key=sizes.get)
    assert set(ordered[-2:]) == {"twitter", "uk-2007-02"}


def test_road_twin_is_sparse():
    g = load_dataset("wrn")
    assert g.average_degree() < 3.0


def test_social_twin_is_skewed():
    g = load_dataset("orkut")
    assert g.max_degree() > 10 * g.average_degree()


def test_unknown_dataset_raises():
    with pytest.raises(GraphError):
        load_dataset("facebook")


def test_synthetic_helpers():
    uni = load_synthetic_uniform(500, 5000)
    assert uni.num_vertices == 500
    clu = load_synthetic_clustered(4, 100)
    assert clu.num_vertices == 400
