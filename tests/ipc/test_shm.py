"""Unit tests for the simulated System V shared memory."""

import pytest

from repro.errors import ShmError
from repro.ipc import IPC_PRIVATE, ShmRegistry


@pytest.fixture
def registry():
    return ShmRegistry()


def test_shmget_creates_and_reuses_segment(registry):
    seg1 = registry.shmget(0x1234)
    seg2 = registry.shmget(0x1234)
    assert seg1 is seg2
    assert len(registry) == 1


def test_shmget_private_always_fresh(registry):
    seg1 = registry.shmget(IPC_PRIVATE)
    seg2 = registry.shmget(IPC_PRIVATE)
    assert seg1 is not seg2
    assert seg1.key != seg2.key


def test_shmget_no_create_raises(registry):
    with pytest.raises(ShmError):
        registry.shmget(0x42, create=False)


def test_mutations_visible_to_both_attachers(registry):
    """The §II-B property: updates on one end are immediately perceived."""
    seg = registry.shmget(0x99)
    agent_view = seg.attach("agent")
    daemon_view = seg.attach("daemon")
    agent_view.put("vertices", [1, 2, 3])
    assert daemon_view.get("vertices") == [1, 2, 3]
    daemon_view.get("vertices").append(4)
    assert agent_view.get("vertices") == [1, 2, 3, 4]


def test_missing_region_raises(registry):
    seg = registry.shmget(1)
    with pytest.raises(ShmError):
        seg.get("nope")


def test_contains_and_regions(registry):
    seg = registry.shmget(1)
    seg.put("a", 1)
    seg.put("b", 2)
    assert "a" in seg and "b" in seg and "c" not in seg
    assert sorted(seg.regions()) == ["a", "b"]


def test_byte_accounting(registry):
    seg = registry.shmget(1)
    seg.put("x", b"abc", nbytes=3)
    seg.get("x", nbytes=3)
    seg.get("x", nbytes=3)
    assert seg.bytes_written == 3
    assert seg.bytes_read == 6


def test_shmrm_destroys_segment(registry):
    seg = registry.shmget(7)
    registry.shmrm(7)
    with pytest.raises(ShmError):
        seg.put("x", 1)
    with pytest.raises(ShmError):
        seg.get("x")
    with pytest.raises(ShmError):
        seg.attach("late")
    with pytest.raises(ShmError):
        registry.shmrm(7)


def test_registry_keys_sorted(registry):
    registry.shmget(30)
    registry.shmget(10)
    registry.shmget(20)
    assert registry.keys() == [10, 20, 30]
