"""Tests for the data-object registry."""

import numpy as np
import pytest

from repro.collector.objects import DataObjectRegistry
from repro.gpu.dtypes import DType
from repro.gpu.memory import DeviceMemory


@pytest.fixture
def memory():
    return DeviceMemory(capacity=1024 * 1024)


@pytest.fixture
def registry():
    return DataObjectRegistry()


def _assign(registry, merged):
    """``alloc_id -> clipped intervals``: the combined pieces the binder
    routes when there are no read or write intervals."""
    empty = np.empty((0, 2), dtype=np.uint64)
    routed = registry.route_intervals(merged, empty, empty)
    return {alloc_id: route.combined for alloc_id, route in routed.items()}


def test_registration_records_metadata(memory, registry):
    alloc = memory.malloc(1024, dtype=DType.FLOAT32, label="arr")
    obj = registry.on_malloc(alloc, None)
    assert obj.alloc_id == alloc.alloc_id
    assert obj.address == alloc.address
    assert obj.size == alloc.size
    assert obj.dtype is DType.FLOAT32


def test_find_by_address_hits_inside(memory, registry):
    alloc = memory.malloc(1024, label="arr")
    registry.on_malloc(alloc, None)
    assert registry.find_by_address(alloc.address).alloc_id == alloc.alloc_id
    assert (
        registry.find_by_address(alloc.address + 100).alloc_id == alloc.alloc_id
    )


def test_find_by_address_misses_outside(memory, registry):
    alloc = memory.malloc(1024)
    registry.on_malloc(alloc, None)
    assert registry.find_by_address(alloc.address - 1) is None
    assert registry.find_by_address(alloc.end) is None


def test_freed_objects_not_found_by_address(memory, registry):
    alloc = memory.malloc(1024)
    registry.on_malloc(alloc, None)
    registry.on_free(alloc)
    assert registry.find_by_address(alloc.address) is None
    # ... but remain queryable by id for postmortem reports.
    assert registry.get(alloc.alloc_id).freed


def test_live_objects_sorted_by_address(memory, registry):
    allocations = [memory.malloc(256) for _ in range(5)]
    for alloc in reversed(allocations):
        registry.on_malloc(alloc, None)
    addresses = [o.address for o in registry.live_objects()]
    assert addresses == sorted(addresses)


def test_assign_intervals_to_objects(memory, registry):
    a = memory.malloc(256, label="a")
    b = memory.malloc(256, label="b")
    registry.on_malloc(a, None)
    registry.on_malloc(b, None)
    merged = np.array(
        [[a.address, a.address + 64], [b.address + 8, b.address + 16]],
        dtype=np.uint64,
    )
    assigned = _assign(registry, merged)
    assert assigned[a.alloc_id].tolist() == [[a.address, a.address + 64]]
    assert assigned[b.alloc_id].tolist() == [[b.address + 8, b.address + 16]]


def test_assign_interval_spanning_two_objects(memory, registry):
    """Adjacent allocations merged by adjacency are clipped per object."""
    a = memory.malloc(256, label="a")
    b = memory.malloc(256, label="b")
    registry.on_malloc(a, None)
    registry.on_malloc(b, None)
    if a.end != b.address:
        pytest.skip("allocator placed objects non-adjacently")
    merged = np.array([[a.address + 128, b.address + 128]], dtype=np.uint64)
    assigned = _assign(registry, merged)
    assert assigned[a.alloc_id].tolist() == [[a.address + 128, a.end]]
    assert assigned[b.alloc_id].tolist() == [[b.address, b.address + 128]]


def test_assign_intervals_outside_objects_dropped(memory, registry):
    a = memory.malloc(256)
    registry.on_malloc(a, None)
    merged = np.array([[a.end + 4096, a.end + 4100]], dtype=np.uint64)
    assert _assign(registry, merged) == {}


def test_assign_intervals_empty(registry):
    assert _assign(registry, np.empty((0, 2), dtype=np.uint64)) == {}


def test_all_objects_ordered_by_id(memory, registry):
    for _ in range(3):
        registry.on_malloc(memory.malloc(64), None)
    ids = [o.alloc_id for o in registry.all_objects()]
    assert ids == sorted(ids)


def test_same_address_on_two_devices_binds_per_device(registry):
    """All devices share the global base address, so the binder must
    disambiguate by device when resolving an address to an object."""
    ids = iter(range(1, 100))  # the context-shared id counter
    mem0 = DeviceMemory(capacity=1024 * 1024, device_index=0, next_id=ids.__next__)
    mem1 = DeviceMemory(capacity=1024 * 1024, device_index=1, next_id=ids.__next__)
    a0 = mem0.malloc(1024, label="dev0")
    a1 = mem1.malloc(1024, label="dev1")
    assert a0.address == a1.address  # colliding device addresses
    registry.on_malloc(a0, None)
    registry.on_malloc(a1, None)
    hit0 = registry.find_by_address(a0.address, device=0)
    hit1 = registry.find_by_address(a1.address, device=1)
    assert hit0.alloc_id == a0.alloc_id
    assert hit1.alloc_id == a1.alloc_id
    assert hit0 is not hit1
