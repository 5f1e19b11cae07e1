"""Tests for the simulated Accelerator device."""

import numpy as np
import pytest

from repro.accel import Accelerator, make_cpu_accelerator, make_gpu
from repro.accel.costmodel import DeviceCostModel
from repro.errors import DeviceError, DeviceMemoryError


@pytest.fixture
def dev():
    model = DeviceCostModel("test", init_ms=50.0, call_ms=2.0,
                            compute_ms_per_entity=0.1,
                            copy_ms_per_entity=0.1, threads=8,
                            memory_bytes=1000)
    return Accelerator(model)


def test_init_returns_cost_and_marks_ready(dev):
    assert not dev.initialized
    assert dev.init() == pytest.approx(50.0)
    assert dev.initialized
    assert dev.init_count == 1


def test_compute_before_init_raises(dev):
    with pytest.raises(DeviceError):
        dev.run(lambda: 1, entities=1)


def test_run_executes_kernel_and_charges_time(dev):
    dev.init()
    result, dt = dev.run(np.sum, np.arange(10), entities=10)
    assert result == 45
    assert dt == pytest.approx(2.0 + 10 * 0.2)
    assert dev.kernel_count == 1
    assert dev.entities_processed == 10


def test_run_negative_entities_rejected(dev):
    dev.init()
    with pytest.raises(DeviceError):
        dev.run(lambda: 1, entities=-1)


def test_shutdown_forces_reinit(dev):
    dev.init()
    dev.shutdown()
    assert not dev.initialized
    with pytest.raises(DeviceError):
        dev.run(lambda: 1, entities=1)
    dev.init()
    assert dev.init_count == 2


def test_memory_admission(dev):
    dev.ensure_capacity(1000)
    with pytest.raises(DeviceMemoryError):
        dev.ensure_capacity(1001)


def test_negative_allocation_rejected(dev):
    with pytest.raises(DeviceError):
        dev.ensure_capacity(-5)


def test_factories():
    gpu = make_gpu(1)
    cpu = make_cpu_accelerator(2)
    assert gpu.model.threads == 1024
    assert gpu.device_id == 1
    assert cpu.model.threads == 20
    # GPU strictly faster per entity, CPU has more memory headroom scaled in
    assert gpu.model.per_entity_ms < cpu.model.per_entity_ms


def test_twitter_twin_overflows_single_gpu():
    """Fig 9(b): Twitter/UK-2007 cannot fit a single GPU."""
    from repro.accel.costmodel import BYTES_PER_EDGE, BYTES_PER_VERTEX
    from repro.graph import load_dataset

    gpu = make_gpu()
    for name in ("twitter", "uk-2007-02"):
        g = load_dataset(name)
        with pytest.raises(DeviceMemoryError):
            gpu.ensure_capacity(
                g.memory_footprint(BYTES_PER_EDGE, BYTES_PER_VERTEX))
    orkut = load_dataset("orkut")
    gpu.ensure_capacity(
        orkut.memory_footprint(BYTES_PER_EDGE, BYTES_PER_VERTEX))
