"""Tests for MiddlewareConfig."""

import pytest

from repro.core.config import BASELINE, FULL, MiddlewareConfig
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


def test_frozen():
    with pytest.raises(Exception):
        FULL.pipeline = False
