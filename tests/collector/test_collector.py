"""Tests for the data collector's interception pipeline."""

import numpy as np
import pytest

from repro.collector.collector import (
    DataCollector,
    LaunchObservation,
    MemoryApiObservation,
)
from repro.collector.sampling import SamplingConfig
from repro.errors import CollectionError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import HostArray


class StubAnalyzer:
    """Collects observations for assertions."""

    def __init__(self):
        self.mallocs = []
        self.frees = []
        self.memory_apis = []
        self.launches = []

    def on_malloc(self, obj):
        self.mallocs.append(obj)

    def on_free(self, obj):
        self.frees.append(obj)

    def on_memory_api(self, obs):
        self.memory_apis.append(obs)

    def on_launch(self, obs):
        self.launches.append(obs)


@pytest.fixture
def attached(rt):
    analyzer = StubAnalyzer()
    collector = DataCollector(analyzer)
    collector.attach(rt)
    return rt, collector, analyzer


def test_malloc_observed(attached):
    rt, collector, analyzer = attached
    alloc = rt.malloc(64, DType.FLOAT32, "arr")
    assert len(analyzer.mallocs) == 1
    assert analyzer.mallocs[0].label == "arr"
    assert collector.registry.get(alloc.alloc_id) is not None


def test_free_observed(attached):
    rt, _, analyzer = attached
    alloc = rt.malloc(64, DType.FLOAT32)
    rt.free(alloc)
    assert len(analyzer.frees) == 1


def test_memcpy_h2d_observation_has_snapshots(attached):
    rt, _, analyzer = attached
    alloc = rt.malloc(64, DType.FLOAT32, "dst")
    rt.memcpy_h2d(alloc, HostArray(np.ones(64, np.float32), "src"))
    obs = analyzer.memory_apis[-1]
    assert isinstance(obs, MemoryApiObservation)
    assert obs.host_source
    write = obs.writes[0]
    assert np.all(write.before[:64] == 0)
    assert np.all(write.after[:64] == 1)
    assert write.written_runs.tolist() == [[0, 64]]


def test_memset_observation(attached):
    rt, _, analyzer = attached
    alloc = rt.malloc(64, DType.INT32, "arr")
    rt.memset(alloc, 0)
    obs = analyzer.memory_apis[-1]
    assert obs.api == "memset"
    assert np.all(obs.writes[0].after == 0)


def test_launch_observation_with_fine_views(attached, fill_kernel):
    rt, _, analyzer = attached
    alloc = rt.malloc(256, DType.FLOAT32, "out")
    rt.launch(fill_kernel, 1, 256, alloc, 3.0)
    obs = analyzer.launches[-1]
    assert isinstance(obs, LaunchObservation)
    assert obs.fine_enabled
    assert len(obs.writes) == 1
    assert np.all(obs.writes[0].after[:256] == 3.0)
    views = {view.obj.label: view for view in obs.fine_views}
    assert "out" in views
    assert np.all(views["out"].values == 3.0)


def test_launch_write_indices_cover_stores_only(attached, acc_kernel):
    rt, _, analyzer = attached
    alloc = rt.malloc(256, DType.FLOAT32, "acc")
    rt.launch(acc_kernel, 1, 128, alloc, 1.0)  # touches first 128 only
    obs = analyzer.launches[-1]
    write = obs.writes[0]
    assert write.written_runs[:, 1].max() <= 128


def test_counters_track_pipeline(attached, fill_kernel):
    rt, collector, _ = attached
    alloc = rt.malloc(1024, DType.FLOAT32)
    rt.launch(fill_kernel, 4, 256, alloc, 0.0)
    counters = collector.counters
    assert counters.total_launches == 1
    assert counters.instrumented_launches == 1
    assert counters.recorded_accesses == 1024
    assert counters.raw_intervals == 1024
    # Coalesced stores compact massively and merge to one interval.
    assert counters.compacted_intervals <= 1024 // 16
    assert counters.merged_intervals == 1
    assert counters.snapshot_bytes > 0


def test_coarse_only_mode_skips_fine_views(rt, fill_kernel):
    analyzer = StubAnalyzer()
    collector = DataCollector(analyzer, coarse=True, fine=False)
    collector.attach(rt)
    alloc = rt.malloc(256, DType.FLOAT32)
    rt.launch(fill_kernel, 1, 256, alloc, 1.0)
    obs = analyzer.launches[-1]
    assert not obs.fine_enabled
    assert obs.fine_views == []
    assert obs.writes  # coarse snapshots still present


def test_kernel_sampling_limits_fine_launches(rt, fill_kernel):
    analyzer = StubAnalyzer()
    collector = DataCollector(
        analyzer,
        coarse=True,
        fine=True,
        sampling=SamplingConfig(kernel_sampling_period=2),
    )
    collector.attach(rt)
    alloc = rt.malloc(256, DType.FLOAT32)
    for _ in range(4):
        rt.launch(fill_kernel, 1, 256, alloc, 1.0)
    fine_flags = [obs.fine_enabled for obs in analyzer.launches]
    assert fine_flags == [True, False, True, False]
    assert collector.counters.fine_launches == 2
    # Coarse instrumentation still covered every launch.
    assert collector.counters.instrumented_launches == 4


def test_kernel_filter_blocks_fine_views(rt, fill_kernel, acc_kernel):
    analyzer = StubAnalyzer()
    collector = DataCollector(
        analyzer,
        coarse=False,
        fine=True,
        sampling=SamplingConfig(kernel_filter=frozenset({"accumulate"})),
    )
    collector.attach(rt)
    alloc = rt.malloc(256, DType.FLOAT32)
    rt.launch(fill_kernel, 1, 256, alloc, 1.0)
    rt.launch(acc_kernel, 1, 256, alloc, 1.0)
    assert not analyzer.launches[0].fine_enabled
    assert analyzer.launches[1].fine_enabled


def test_untyped_records_deferred(rt):
    from repro.gpu.kernel import kernel

    @kernel("untyped_user")
    def untyped_user(ctx, buf):
        tid = ctx.global_ids
        ctx.load_untyped(buf, tid, tids=tid)

    analyzer = StubAnalyzer()
    collector = DataCollector(analyzer)
    collector.attach(rt)
    alloc = rt.malloc(64, DType.FLOAT32, "mystery")
    rt.launch(untyped_user, 1, 64, alloc)
    obs = analyzer.launches[-1]
    assert len(obs.untyped_groups) == 1
    assert obs.untyped_groups[0].obj.label == "mystery"
    assert obs.untyped_groups[0].raw_values.dtype == np.uint32


def test_double_attach_rejected(rt):
    collector = DataCollector(StubAnalyzer())
    collector.attach(rt)
    with pytest.raises(CollectionError):
        collector.attach(rt)


def test_detach_without_attach_rejected(rt):
    collector = DataCollector(StubAnalyzer())
    with pytest.raises(CollectionError):
        collector.detach()


def test_detach_stops_collection(rt, fill_kernel):
    analyzer = StubAnalyzer()
    collector = DataCollector(analyzer)
    collector.attach(rt)
    alloc = rt.malloc(64, DType.FLOAT32)
    collector.detach()
    rt.launch(fill_kernel, 1, 64, alloc, 1.0)
    assert analyzer.launches == []


def test_free_forgets_snapshot(rt):
    analyzer = StubAnalyzer()
    collector = DataCollector(analyzer)
    collector.attach(rt)
    alloc = rt.malloc(64, DType.FLOAT32, "ephemeral")
    rt.memset(alloc, 1)
    assert collector.snapshots.is_tracked(alloc.alloc_id)
    rt.free(alloc)
    assert not collector.snapshots.is_tracked(alloc.alloc_id)


def test_malloc_free_malloc_reusing_address(rt, fill_kernel):
    """The allocator reuses addresses; alloc_ids must not collide."""
    analyzer = StubAnalyzer()
    collector = DataCollector(analyzer)
    collector.attach(rt)
    first = rt.malloc(256, DType.FLOAT32, "first")
    rt.launch(fill_kernel, 1, 256, first, 1.0)
    rt.free(first)
    second = rt.malloc(256, DType.FLOAT32, "second")
    assert second.address == first.address
    assert second.alloc_id != first.alloc_id
    rt.launch(fill_kernel, 1, 256, second, 2.0)
    obs = analyzer.launches[-1]
    assert [w.obj.label for w in obs.writes] == ["second"]
    assert np.allclose(obs.writes[-1].after, 2.0)
    assert not collector.snapshots.is_tracked(first.alloc_id)
    assert collector.snapshots.is_tracked(second.alloc_id)
