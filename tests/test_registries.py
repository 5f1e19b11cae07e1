"""The wire-name registries: one table per kind, read by every layer."""

import repro.algorithms
import repro.cli
import repro.engines
import repro.serve
import repro.serve.job
from repro.algorithms import ALGORITHMS, PAPER_WORKLOADS, paper_workloads
from repro.bench import algorithm_factories
from repro.engines import (ENGINES, AsyncEngine, GraphXEngine,
                           PowerGraphEngine)


def test_keys_are_each_class_name():
    assert len(ALGORITHMS) == 7 and len(ENGINES) == 3
    for registry in (ALGORITHMS, ENGINES):
        assert all(key == cls.name for key, cls in registry.items())


def test_every_layer_reads_the_same_objects():
    assert repro.serve.job.ALGORITHMS is ALGORITHMS
    assert repro.serve.JOB_ALGORITHMS is ALGORITHMS
    assert repro.cli.ALGORITHMS is ALGORITHMS
    assert repro.serve.job.ENGINES is ENGINES
    assert repro.serve.JOB_ENGINES is ENGINES
    assert repro.cli.ENGINES is ENGINES


def test_cli_flag_mapping_names_registered_algorithms():
    from repro.cli.run import ALGORITHM_FLAGS
    assert set(ALGORITHM_FLAGS) <= set(ALGORITHMS)


def test_engines_state_their_host_runtime():
    assert GraphXEngine.host_runtime == "jvm"
    assert PowerGraphEngine.host_runtime == "native"
    assert AsyncEngine.host_runtime == "native"


def test_paper_workloads_one_definition_two_views():
    assert list(PAPER_WORKLOADS) == ["pagerank", "sssp-bf", "lp"]
    assert set(PAPER_WORKLOADS) < set(ALGORITHMS)
    workloads, factories = paper_workloads(), algorithm_factories()
    assert list(workloads) == list(factories) == list(PAPER_WORKLOADS)
    assert [cap for _f, cap in factories.values()] == [10, None, 15]
    for name, (factory, _cap) in factories.items():
        assert type(factory()) is type(workloads[name]) is ALGORITHMS[name]
    assert factories["sssp-bf"][0]().sources == workloads["sssp-bf"].sources
