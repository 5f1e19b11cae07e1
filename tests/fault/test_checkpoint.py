"""Unit tests for superstep checkpointing."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.fault import CheckpointStore


def test_validation():
    with pytest.raises(CheckpointError):
        CheckpointStore(0)
    with pytest.raises(CheckpointError):
        CheckpointStore(2, ms_per_cell=-1.0)
    with pytest.raises(CheckpointError, match="full_every"):
        CheckpointStore(2, full_every=0)


def test_due_schedule():
    store = CheckpointStore(3)
    assert [i for i in range(1, 10) if store.due(i)] == [3, 6, 9]


def test_save_charges_cost_model():
    store = CheckpointStore(2, ms_per_cell=0.01, fixed_ms=1.0)
    values = np.zeros((50, 2))
    cost = store.save(2, values, np.ones(50, dtype=bool))
    assert cost == pytest.approx(1.0 + 0.01 * 100)
    assert store.saves == 1
    assert store.total_checkpoint_ms == pytest.approx(cost)


def test_snapshots_are_isolated_copies():
    store = CheckpointStore(1)
    values = np.arange(6, dtype=float).reshape(3, 2)
    active = np.array([True, False, True])
    store.save(1, values, active)
    values[:] = -1.0                          # mutate after snapshot
    active[:] = False
    ckpt = store.restore()
    assert ckpt.iteration == 1
    np.testing.assert_array_equal(
        ckpt.values, np.arange(6, dtype=float).reshape(3, 2))
    np.testing.assert_array_equal(ckpt.active, [True, False, True])
    # restored arrays are themselves fresh copies
    ckpt.values[:] = 99.0
    np.testing.assert_array_equal(store.restore().values,
                                  np.arange(6, dtype=float).reshape(3, 2))
    assert store.restores == 2


def test_restore_charges_readback_cost():
    store = CheckpointStore(1, ms_per_cell=0.1, fixed_ms=2.0)
    store.save(4, np.zeros(10), np.zeros(10, dtype=bool))
    ckpt = store.restore()
    assert ckpt.cost_ms == pytest.approx(2.0 + 0.1 * 10)


def test_keep_limit_retains_newest():
    store = CheckpointStore(1)
    for i in range(1, 6):
        store.save(i, np.full(4, float(i)), np.zeros(4, dtype=bool))
    assert store.latest.iteration == 5
    assert store.saves == 5
    # restore sees the newest
    assert store.restore().iteration == 5


def test_restore_before_save_raises():
    store = CheckpointStore(2)
    assert store.latest is None
    with pytest.raises(CheckpointError):
        store.restore()


def test_boolean_mask_changed_is_a_delta_of_its_set_rows():
    store = CheckpointStore(1, ms_per_cell=1.0, fixed_ms=0.0)
    values, active = np.zeros(8), np.ones(8, dtype=bool)
    store.save(0, values, active)
    values = values.copy()
    values[[2, 5]] = 1.0
    mask = np.zeros(8, dtype=bool)
    mask[[2, 5]] = True
    assert store.save(1, values, active, changed=mask) == 2.0
    assert store.delta_saves == 1
    np.testing.assert_array_equal(store.restore().values, values)


@pytest.mark.parametrize("ids", [[-1, 2], [3, 8]])
def test_out_of_range_changed_ids_are_refused(ids):
    store = CheckpointStore(1)
    values, active = np.zeros(8), np.ones(8, dtype=bool)
    store.save(0, values, active)
    with pytest.raises(CheckpointError, match="out of range"):
        store.save(1, values, active, changed=np.array(ids))


def test_latest_iteration_names_the_newest_delta():
    store = CheckpointStore(1)
    values, active = np.zeros(8), np.ones(8, dtype=bool)
    assert store.latest_iteration is None
    store.save(0, values, active)
    store.save(1, values, active, changed=np.array([3]))
    assert store.delta_saves == 1
    assert store.latest.iteration == 0           # the full base
    assert store.latest_iteration == 1           # the delta on top


def test_seed_refuses_a_non_empty_store():
    store = CheckpointStore(1)
    values, active = np.zeros(4), np.ones(4, dtype=bool)
    store.seed(3, values, active)
    assert store.latest.iteration == 3 and store.saves == 0
    with pytest.raises(CheckpointError, match="non-empty"):
        store.seed(3, values, active)
