"""Tests for access records."""

import dataclasses

import numpy as np
import pytest

from repro.gpu.accesses import AccessKind, AccessRecord
from repro.gpu.dtypes import DType


def _record(n=4, itemsize=4):
    return AccessRecord(
        pc=0x1000,
        kind=AccessKind.LOAD,
        addresses=np.arange(n, dtype=np.uint64) * itemsize + 0x100,
        values=np.zeros(n, dtype=f"f{itemsize}"),
        dtype=DType.FLOAT32 if itemsize == 4 else DType.FLOAT64,
        kernel_name="k",
        thread_ids=np.arange(n),
        block_ids=np.zeros(n, dtype=np.int64),
    )


def test_count_and_bytes():
    record = _record(n=8, itemsize=4)
    assert record.count == 8
    assert record.itemsize == 4
    assert record.bytes_accessed == 32


def test_mismatched_vectors_rejected():
    with pytest.raises(ValueError):
        AccessRecord(
            pc=0,
            kind=AccessKind.STORE,
            addresses=np.arange(4, dtype=np.uint64),
            values=np.zeros(3),
            dtype=None,
            kernel_name="k",
            thread_ids=np.arange(4),
            block_ids=np.zeros(4, dtype=np.int64),
        )


def test_intervals_are_half_open_per_thread():
    record = _record(n=3, itemsize=8)
    intervals = record.intervals()
    assert intervals.shape == (3, 2)
    assert np.all(intervals[:, 1] - intervals[:, 0] == 8)
    assert intervals[0, 0] == record.addresses[0]


def test_intervals_for_adjacent_accesses_touch():
    record = _record(n=4, itemsize=4)
    intervals = record.intervals()
    # Coalesced accesses: each end equals the next start.
    assert np.all(intervals[:-1, 1] == intervals[1:, 0])


def test_take_slices_every_per_thread_vector():
    record = _record(n=6)
    head = record.take(slice(None, 4))
    assert head.count == 4
    np.testing.assert_array_equal(head.addresses, record.addresses[:4])
    np.testing.assert_array_equal(head.values, record.values[:4])
    np.testing.assert_array_equal(head.thread_ids, np.arange(4))
    np.testing.assert_array_equal(head.block_ids, np.zeros(4))
    assert (head.pc, head.kind, head.dtype, head.kernel_name) == (
        record.pc, record.kind, record.dtype, record.kernel_name
    )


def test_take_masks_every_per_thread_vector():
    record = dataclasses.replace(
        _record(n=6), block_ids=np.array([0, 0, 1, 1, 2, 2])
    )
    mask = np.array([True, False, False, True, True, False])
    picked = record.take(mask)
    np.testing.assert_array_equal(picked.addresses, record.addresses[mask])
    np.testing.assert_array_equal(picked.thread_ids, [0, 3, 4])
    np.testing.assert_array_equal(picked.block_ids, [0, 1, 2])


def test_take_accepts_list_typed_ids():
    record = dataclasses.replace(
        _record(n=4), thread_ids=[10, 11, 12, 13], block_ids=[0, 0, 1, 1]
    )
    picked = record.take(np.array([False, True, False, True]))
    np.testing.assert_array_equal(picked.thread_ids, [11, 13])
    np.testing.assert_array_equal(picked.block_ids, [0, 1])
    assert record.take(slice(None, 3)).thread_ids.tolist() == [10, 11, 12]
