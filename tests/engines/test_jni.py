"""Tests for the JNI transmitter / data packager simulation."""

import pytest

from repro.cluster import JVM_RUNTIME
from repro.engines import NAIVE_JNI, OPTIMIZED_JNI, JNIConfig, improvement_factor
from repro.errors import EngineError


def test_paper_improvement_claim_3_to_10x():
    """§IV-B1: 'about 3 to 10 times of improvement' over naive invoking."""
    factor = improvement_factor(100_000)
    assert 3.0 <= factor <= 10.0


def test_improvement_holds_across_sizes():
    for n in (1_000, 10_000, 1_000_000):
        assert improvement_factor(n) > 2.0


def test_batching_amortizes_setup():
    cfg = JNIConfig(batched_transfer=True, data_packager=True,
                    batch_size=1000)
    one = cfg.transfer_ms(1)
    thousand = cfg.transfer_ms(1000)
    assert thousand < 1000 * one


def test_data_packager_removes_conversion_overhead():
    with_packager = JNIConfig(batched_transfer=True, data_packager=True)
    without = JNIConfig(batched_transfer=True, data_packager=False)
    assert without.transfer_ms(10_000) > with_packager.transfer_ms(10_000)


def test_zero_entities_free():
    assert NAIVE_JNI.transfer_ms(0) == 0.0


def test_validation():
    with pytest.raises(EngineError):
        JNIConfig(batch_size=0)
    with pytest.raises(EngineError):
        NAIVE_JNI.transfer_ms(-1)


def test_jvm_runtime_is_calibrated_to_the_optimized_transmitter():
    """JVM_RUNTIME's k1/k3 are the optimized JNI slope, rounded: within
    0.5 % of it, and well below the naive one."""
    slope = OPTIMIZED_JNI.ms_per_entity()
    for k in (JVM_RUNTIME.download_ms_per_entity,
              JVM_RUNTIME.upload_ms_per_entity):
        assert k == pytest.approx(slope, rel=0.005)
        assert k < NAIVE_JNI.ms_per_entity()
