"""Tests for MiddlewareConfig."""

import numpy as np
import pytest

from repro.core.config import (
    BASELINE,
    FULL,
    MiddlewareConfig,
    StragglerConfig,
)
from repro.errors import MiddlewareError


def test_full_default_everything_on():
    assert FULL.pipeline and FULL.sync_cache and FULL.lazy_upload
    assert FULL.sync_skip and FULL.runtime_isolation
    assert FULL.block_size is None  # Pipeline*: Lemma-1 optimal


def test_baseline_everything_off():
    assert not BASELINE.pipeline
    assert not BASELINE.sync_cache
    assert not BASELINE.sync_skip
    assert BASELINE.runtime_isolation  # isolation is framework, not opt


def test_with_returns_modified_copy():
    c = FULL.with_(pipeline=False)
    assert not c.pipeline
    assert FULL.pipeline  # original untouched


def test_block_size_validation():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(block_size=0)
    MiddlewareConfig(block_size=1)  # ok


def test_cache_capacity_validation():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(cache_capacity=0)


def test_lazy_upload_requires_cache():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(sync_cache=False, lazy_upload=True, sync_skip=False)


def test_sync_skip_requires_cache():
    with pytest.raises(MiddlewareError):
        MiddlewareConfig(sync_cache=False, lazy_upload=False, sync_skip=True)


def test_rebalance_on_degrade_requires_degrade_to_host():
    with pytest.raises(MiddlewareError, match="requires degrade_to_host"):
        MiddlewareConfig(rebalance_on_degrade=True)
    MiddlewareConfig(rebalance_on_degrade=True, degrade_to_host=True)


def test_frozen():
    with pytest.raises(Exception):
        FULL.pipeline = False


COUNTS = {"block_size": 1, "cache_capacity": 1,
          "skip_max_local_iterations": 1, "checkpoint_interval": 0}


@pytest.mark.parametrize("field", sorted(COUNTS))
@pytest.mark.parametrize("bad", [2.5, True, "10", 1.0])
def test_counts_must_be_integers(field, bad):
    """A float, bool or string count is refused at construction, not
    mid-run inside numpy."""
    with pytest.raises(MiddlewareError, match=field):
        MiddlewareConfig(**{field: bad})


@pytest.mark.parametrize("field", sorted(COUNTS))
def test_counts_below_their_minimum_are_refused(field):
    with pytest.raises(MiddlewareError, match=field):
        MiddlewareConfig(**{field: COUNTS[field] - 1})


@pytest.mark.parametrize("field", sorted(COUNTS))
def test_numpy_integer_counts_are_accepted(field):
    value = np.int64(COUNTS[field] + 2)
    assert getattr(MiddlewareConfig(**{field: value}), field) == value


SWITCHES = [(MiddlewareConfig, name) for name in (
    "pipeline", "sync_cache", "lazy_upload", "sync_skip",
    "runtime_isolation", "degrade_to_host", "rebalance_on_degrade")] + [
    (StragglerConfig, "enabled"), (StragglerConfig, "reestimate")]


@pytest.mark.parametrize("cls,field", SWITCHES)
@pytest.mark.parametrize("bad", ["yes", 1, 0, None])
def test_switches_must_be_bools(cls, field, bad):
    """A switch holding a string or a number is refused, not read as
    set (``"yes"``) or unset."""
    with pytest.raises(MiddlewareError, match=f"{field} must be a bool"):
        cls(**{field: bad})


def test_numpy_bool_switches_are_accepted():
    assert not MiddlewareConfig(sync_skip=np.bool_(False)).sync_skip
    assert StragglerConfig(enabled=np.bool_(True)).enabled


def test_cache_capacity_of_a_numpy_integer_runs():
    """A bounded cache sized by an ``np.int64`` builds and evicts."""
    from repro.core.sync_cache import LRUVertexCache
    cache = LRUVertexCache(np.int64(2))
    evicted = cache.insert_many(np.arange(4))
    assert evicted.tolist() == [0, 1] and len(cache) == 2


@pytest.mark.parametrize("bad", [2.5, True, "10", 0])
def test_cache_refuses_a_bad_capacity(bad):
    from repro.core.sync_cache import LRUVertexCache
    with pytest.raises(MiddlewareError, match="capacity"):
        LRUVertexCache(bad)
