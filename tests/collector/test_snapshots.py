"""Tests for the CPU-side snapshot store."""

import numpy as np
import pytest

from repro.collector.objects import DataObjectRegistry
from repro.collector.snapshots import SnapshotStore
from repro.errors import CollectionError
from repro.gpu.dtypes import DType
from repro.gpu.memory import DeviceMemory
from repro.intervals.copyplan import CopyPlan, CopyStrategy


@pytest.fixture
def setup():
    memory = DeviceMemory(capacity=1024 * 1024)
    registry = DataObjectRegistry()
    store = SnapshotStore()
    alloc = memory.malloc(256 * 4, dtype=DType.FLOAT32, label="arr")
    obj = registry.on_malloc(alloc, None)
    store.track(obj)
    return memory, store, obj, alloc


def test_track_captures_initial_contents(setup):
    _, store, obj, _ = setup
    assert np.all(store.snapshot(obj.alloc_id) == 0)


def test_track_twice_rejected(setup):
    _, store, obj, _ = setup
    with pytest.raises(CollectionError):
        store.track(obj)


def test_untracked_snapshot_rejected():
    store = SnapshotStore()
    with pytest.raises(CollectionError):
        store.snapshot(123)


def test_refresh_full_returns_before_and_after(setup):
    _, store, obj, alloc = setup
    alloc.write_all(np.ones(alloc.nelems, np.float32))
    before, after = store.refresh_full(obj)
    assert np.all(before == 0)
    assert np.all(after == 1)
    assert np.all(store.snapshot(obj.alloc_id) == 1)


def test_refresh_plan_updates_only_planned_ranges(setup):
    _, store, obj, alloc = setup
    alloc.write_all(np.full(alloc.nelems, 7.0, np.float32))
    # Plan covers elements [0, 64) only.
    plan = CopyPlan(
        strategy=CopyStrategy.SEGMENT,
        ranges=((obj.address, obj.address + 64 * 4),),
        bytes_transferred=64 * 4,
        invocations=1,
        cost_bytes=64 * 4,
    )
    before, after = store.refresh_plan(obj, plan)
    assert np.all(after[:64] == 7.0)
    assert np.all(after[64:] == 0.0)  # outside the plan: stale mirror


def test_traffic_accounting(setup):
    _, store, obj, alloc = setup
    initial_bytes = store.traffic.bytes_copied
    store.refresh_full(obj)
    assert store.traffic.bytes_copied == initial_bytes + obj.size
    plan = CopyPlan(
        strategy=CopyStrategy.SEGMENT,
        ranges=((obj.address, obj.address + 16),),
        bytes_transferred=16,
        invocations=1,
        cost_bytes=16,
    )
    store.refresh_plan(obj, plan)
    assert store.traffic.bytes_copied == initial_bytes + obj.size + 16


def test_element_runs_from_intervals(setup):
    _, store, obj, _ = setup
    intervals = np.array(
        [[obj.address, obj.address + 16],
         [obj.address + 100 * 4, obj.address + 102 * 4]],
        dtype=np.uint64,
    )
    runs = store.element_runs(obj, intervals)
    assert runs.dtype == np.int64
    assert runs.tolist() == [[0, 4], [100, 102]]


def test_element_runs_partial_element_rounds_out(setup):
    """A partially covered element still needs refreshing."""
    _, store, obj, _ = setup
    intervals = np.array(
        [[obj.address + 2, obj.address + 6]], dtype=np.uint64
    )
    assert store.element_runs(obj, intervals).tolist() == [[0, 2]]


def test_element_runs_empty(setup):
    _, store, obj, _ = setup
    empty = np.empty((0, 2), dtype=np.uint64)
    assert store.element_runs(obj, empty).shape == (0, 2)


def test_forget_stops_tracking(setup):
    _, store, obj, _ = setup
    store.forget(obj)
    assert not store.is_tracked(obj.alloc_id)


# -- incremental digests and partial-plan refresh ----------------------------


def _segment_plan(obj, lo_el, hi_el):
    itemsize = obj.dtype.itemsize
    return CopyPlan(
        strategy=CopyStrategy.SEGMENT,
        ranges=((obj.address + lo_el * itemsize, obj.address + hi_el * itemsize),),
        bytes_transferred=(hi_el - lo_el) * itemsize,
        invocations=1,
        cost_bytes=(hi_el - lo_el) * itemsize,
    )


def test_digest_matches_full_snapshot_hash(setup):
    from repro.utils.hashing import snapshot_digest

    _, store, obj, alloc = setup
    assert store.digest(obj.alloc_id) == snapshot_digest(
        store.snapshot(obj.alloc_id)
    )


def test_digest_untracked_rejected():
    store = SnapshotStore()
    with pytest.raises(CollectionError):
        store.digest(99)


def test_refresh_plan_keeps_digest_consistent(setup):
    from repro.utils.hashing import snapshot_digest

    _, store, obj, alloc = setup
    alloc.write_all(np.full(alloc.nelems, 3.0, np.float32))
    store.refresh_plan(obj, _segment_plan(obj, 16, 48))
    snap = store.snapshot(obj.alloc_id)
    assert np.all(snap[16:48] == 3.0)
    assert store.digest(obj.alloc_id) == snapshot_digest(snap)


def test_refresh_full_resets_digest(setup):
    from repro.utils.hashing import snapshot_digest

    _, store, obj, alloc = setup
    stale = store.digest(obj.alloc_id)
    alloc.write_all(np.full(alloc.nelems, 9.0, np.float32))
    store.refresh_full(obj)
    assert store.digest(obj.alloc_id) != stale
    assert store.digest(obj.alloc_id) == snapshot_digest(
        store.snapshot(obj.alloc_id)
    )


def test_refresh_plan_does_not_copy_the_whole_object(setup):
    """The returned ``before`` is the store's previous mirror itself;
    only ``after`` is a fresh array (copy-on-refresh, not copy-twice)."""
    _, store, obj, alloc = setup
    previous = store.snapshot(obj.alloc_id)
    alloc.write_all(np.full(alloc.nelems, 5.0, np.float32))
    before, after = store.refresh_plan(obj, _segment_plan(obj, 0, 8))
    assert before is previous
    assert after is store.snapshot(obj.alloc_id)
    assert after is not previous


def test_refresh_plan_multiple_ranges_digest(setup):
    from repro.utils.hashing import snapshot_digest

    _, store, obj, alloc = setup
    alloc.write_all(np.arange(alloc.nelems, dtype=np.float32))
    itemsize = obj.dtype.itemsize
    plan = CopyPlan(
        strategy=CopyStrategy.SEGMENT,
        ranges=(
            (obj.address, obj.address + 8 * itemsize),
            (obj.address + 128 * itemsize, obj.address + 160 * itemsize),
        ),
        bytes_transferred=40 * itemsize,
        invocations=2,
        cost_bytes=40 * itemsize,
    )
    store.refresh_plan(obj, plan)
    snap = store.snapshot(obj.alloc_id)
    assert np.all(snap[:8] == np.arange(8))
    assert np.all(snap[8:128] == 0)
    assert np.all(snap[128:160] == np.arange(128, 160))
    assert store.digest(obj.alloc_id) == snapshot_digest(snap)
