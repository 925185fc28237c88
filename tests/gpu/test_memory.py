"""Tests for the device memory allocator."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import InvalidAddressError, InvalidValueError, OutOfMemoryError
from repro.gpu.dtypes import DType
from repro.gpu.memory import ALIGNMENT, DeviceMemory, GLOBAL_BASE


@pytest.fixture
def memory():
    return DeviceMemory(capacity=1024 * 1024)


def test_allocations_have_distinct_nonoverlapping_ranges(memory):
    allocations = [memory.malloc(100) for _ in range(10)]
    ranges = sorted((a.address, a.end) for a in allocations)
    for (_, prev_end), (next_start, _) in zip(ranges, ranges[1:]):
        assert prev_end <= next_start


def test_addresses_are_aligned(memory):
    for size in (1, 17, 255, 257):
        alloc = memory.malloc(size)
        assert alloc.address % ALIGNMENT == 0
        assert alloc.address >= GLOBAL_BASE


def test_size_rounds_up_to_alignment(memory):
    alloc = memory.malloc(10)
    assert alloc.size == ALIGNMENT


def test_zero_or_negative_size_rejected(memory):
    with pytest.raises(InvalidValueError):
        memory.malloc(0)
    with pytest.raises(InvalidValueError):
        memory.malloc(-4)


def test_out_of_memory(memory):
    with pytest.raises(OutOfMemoryError):
        memory.malloc(2 * 1024 * 1024)


def test_free_allows_reuse(memory):
    first = memory.malloc(memory.capacity // 2)
    memory.free(first)
    second = memory.malloc(memory.capacity // 2)
    assert second.address == first.address


def test_double_free_rejected(memory):
    alloc = memory.malloc(64)
    memory.free(alloc)
    with pytest.raises(InvalidAddressError):
        memory.free(alloc)


def test_use_after_free_rejected(memory):
    alloc = memory.malloc(64, dtype=DType.FLOAT32)
    memory.free(alloc)
    with pytest.raises(InvalidAddressError):
        alloc.read(np.array([0]))


def test_coalescing_recovers_full_capacity(memory):
    allocations = [memory.malloc(1000) for _ in range(5)]
    for alloc in allocations:
        memory.free(alloc)
    assert memory.bytes_free == memory.capacity
    # A full-capacity allocation must now succeed.
    memory.malloc(memory.capacity - ALIGNMENT)


def test_read_write_roundtrip(memory):
    alloc = memory.malloc(64 * 4, dtype=DType.FLOAT32)
    data = np.arange(64, dtype=np.float32)
    alloc.write(np.arange(64), data)
    assert np.array_equal(alloc.read(np.arange(64)), data)


def test_fresh_allocation_is_zeroed(memory):
    first = memory.malloc(256, dtype=DType.INT32, label="first")
    first.write_all(np.full(first.nelems, 7, np.int32))
    memory.free(first)
    second = memory.malloc(256, dtype=DType.INT32, label="second")
    assert np.all(second.read_all() == 0)


def test_out_of_range_index_rejected(memory):
    # 64 floats = 256 bytes = exactly one alignment granule.
    alloc = memory.malloc(64 * 4, dtype=DType.FLOAT32)
    with pytest.raises(InvalidAddressError):
        alloc.read(np.array([64]))
    with pytest.raises(InvalidAddressError):
        alloc.write(np.array([-1]), np.array([1.0]))


def test_nelems_reflects_alignment_granularity():
    """cudaMalloc-style rounding: a 16-float request yields a 256-byte
    allocation, so 64 elements are addressable."""
    memory = DeviceMemory(capacity=4096)
    alloc = memory.malloc(16 * 4, dtype=DType.FLOAT32)
    assert alloc.nelems == 64


def test_write_all_size_mismatch_rejected(memory):
    alloc = memory.malloc(64 * 4, dtype=DType.FLOAT32)
    with pytest.raises(InvalidValueError):
        alloc.write_all(np.zeros(5, np.float32))


def test_find_by_address(memory):
    alloc = memory.malloc(128, dtype=DType.UINT8)
    assert memory.find(alloc.address) is alloc
    assert memory.find(alloc.address + alloc.size - 1) is alloc
    assert memory.find(alloc.end) is not alloc


def test_contains_and_element_address(memory):
    alloc = memory.malloc(16 * 4, dtype=DType.FLOAT32)
    assert alloc.contains(alloc.address)
    assert not alloc.contains(alloc.end)
    assert alloc.element_address(3) == alloc.address + 12


def test_raw_bytes_reflect_writes(memory):
    alloc = memory.malloc(4 * 4, dtype=DType.UINT32)
    alloc.write(np.array([0]), np.array([0x01020304], np.uint32))
    raw = alloc.raw_bytes(0, 4)
    assert raw == bytes([0x04, 0x03, 0x02, 0x01])  # little endian


def test_bytes_in_use_tracking(memory):
    assert memory.bytes_in_use == 0
    alloc = memory.malloc(512)
    assert memory.bytes_in_use == alloc.size
    memory.free(alloc)
    assert memory.bytes_in_use == 0


@pytest.mark.parametrize("name", ["lammps", "pytorch/resnet50_dp"])
def test_dropped_runtime_frees_its_arenas_without_the_cyclic_collector(name):
    """No reference cycle reaches a device's arena (an allocation holds
    its bytes, not its allocator; id counters are plain counters), so
    dropping a profiled runtime frees every arena at once."""
    from repro import ToolConfig, ValueExpert
    from repro.gpu import GpuRuntime
    from repro.workloads import get_workload

    gc.collect()
    gc.disable()
    try:
        runtime = GpuRuntime()
        ValueExpert(ToolConfig()).profile(
            get_workload(name)(scale=0.25, seed=0), runtime=runtime
        )
        arenas = [weakref.ref(device.memory._arena) for device in runtime.context.devices]
        del runtime
        assert [arena() for arena in arenas] == [None] * len(arenas)
    finally:
        gc.enable()
