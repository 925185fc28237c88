"""Equivalence: single-pass pipeline vs the reference triple-merge.

Two collectors — the production single-pass :class:`DataCollector` and
the pre-optimization :class:`ReferenceCollector` — observe identical
API streams on separate but identically-seeded runtimes.  Every
launch observation must be byte-identical: same objects in the same
order, same snapshots, same written indices, same fine views.
"""

import numpy as np
import pytest

from repro.collector.collector import DataCollector
from repro.collector.reference import ReferenceCollector
from repro.gpu.device import Device, DeviceConfig
from repro.gpu.dtypes import DType
from repro.gpu.kernel import kernel
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.gpu.timing import RTX_2080_TI


class RecordingAnalyzer:
    """Keeps every observation for later comparison."""

    def __init__(self):
        self.launches = []
        self.memory_apis = []

    def on_malloc(self, obj):
        pass

    def on_free(self, obj):
        pass

    def on_memory_api(self, obs):
        self.memory_apis.append(obs)

    def on_launch(self, obs):
        self.launches.append(obs)


@kernel("stripe_rw")
def stripe_rw_kernel(ctx, a, b, c):
    """Reads a and b with divergent stripes, writes b and c."""
    tid = ctx.global_ids
    even = tid[tid % 2 == 0]
    odd = tid[tid % 3 != 0]
    av = ctx.load(a, even, tids=even)
    bv = ctx.load(b, odd, tids=odd)
    ctx.store(b, even, av * np.float32(2.0), tids=even)
    ctx.store(c, odd, bv + np.float32(1.0), tids=odd)


@kernel("gather_scatter")
def gather_scatter_kernel(ctx, src, dst):
    """Strided gather/scatter producing fragmented intervals."""
    tid = ctx.global_ids
    idx = (tid * 7) % src.nelems
    values = ctx.load(src, idx, tids=tid)
    ctx.store(dst, (tid * 3) % dst.nelems, values, tids=tid)


def _run_workload(collector_cls):
    device = Device(DeviceConfig(global_memory_bytes=8 * 1024 * 1024))
    rt = GpuRuntime(device=device, platform=RTX_2080_TI)
    analyzer = RecordingAnalyzer()
    collector = collector_cls(analyzer)
    collector.attach(rt)

    rng = np.random.default_rng(7)
    a = rt.upload(rng.random(256).astype(np.float32), "a")
    b = rt.upload(rng.random(256).astype(np.float32), "b")
    c = rt.malloc(256, DType.FLOAT32, "c")
    d = rt.malloc(512, DType.FLOAT32, "d")
    rt.memset(d, 0)
    for _ in range(3):
        rt.launch(stripe_rw_kernel, 2, 128, a, b, c)
        rt.launch(gather_scatter_kernel, 1, 256, b, d)
    rt.memcpy_h2d(a, HostArray(rng.random(256).astype(np.float32), "h"))
    rt.launch(stripe_rw_kernel, 2, 128, a, b, c)
    rt.free(b)
    rt.launch(gather_scatter_kernel, 1, 128, a, d)
    return collector, analyzer


def _assert_writes_equal(got, expected):
    assert [w.obj.label for w in got] == [w.obj.label for w in expected]
    for gw, ew in zip(got, expected):
        assert gw.nbytes == ew.nbytes
        assert np.array_equal(gw.written_runs, ew.written_runs)
        assert gw.before.tobytes() == ew.before.tobytes()
        assert gw.after.tobytes() == ew.after.tobytes()


@pytest.fixture(scope="module")
def both_runs():
    new_collector, new_analyzer = _run_workload(DataCollector)
    ref_collector, ref_analyzer = _run_workload(ReferenceCollector)
    return new_collector, new_analyzer, ref_collector, ref_analyzer


def test_launch_observations_byte_identical(both_runs):
    _, new_analyzer, _, ref_analyzer = both_runs
    assert len(new_analyzer.launches) == len(ref_analyzer.launches)
    for got, expected in zip(new_analyzer.launches, ref_analyzer.launches):
        assert got.kernel_name == expected.kernel_name
        assert got.fine_enabled == expected.fine_enabled
        _assert_writes_equal(got.writes, expected.writes)
        assert [(r.obj.label, r.nbytes) for r in got.reads] == [
            (r.obj.label, r.nbytes) for r in expected.reads
        ]


def test_fine_views_byte_identical(both_runs):
    _, new_analyzer, _, ref_analyzer = both_runs
    for got, expected in zip(new_analyzer.launches, ref_analyzer.launches):
        assert [(v.obj.label, v.dtype) for v in got.fine_views] == [
            (v.obj.label, v.dtype) for v in expected.fine_views
        ]
        for gv, ev in zip(got.fine_views, expected.fine_views):
            assert gv.values.tobytes() == ev.values.tobytes()
            assert gv.addresses.tobytes() == ev.addresses.tobytes()


def test_memory_api_observations_identical(both_runs):
    _, new_analyzer, _, ref_analyzer = both_runs
    assert len(new_analyzer.memory_apis) == len(ref_analyzer.memory_apis)
    for got, expected in zip(new_analyzer.memory_apis, ref_analyzer.memory_apis):
        assert got.name == expected.name
        _assert_writes_equal(got.writes, expected.writes)


def test_snapshot_traffic_identical(both_runs):
    """The adaptive copy plans (priced by the overhead model) agree."""
    new_collector, _, ref_collector, _ = both_runs
    assert (
        new_collector.counters.snapshot_bytes
        == ref_collector.counters.snapshot_bytes
    )
    assert (
        new_collector.counters.snapshot_copies
        == ref_collector.counters.snapshot_copies
    )
    assert (
        new_collector.counters.merged_intervals
        == ref_collector.counters.merged_intervals
    )
    assert (
        new_collector.counters.recorded_accesses
        == ref_collector.counters.recorded_accesses
    )


def test_single_pass_runs_exactly_one_sweep_per_launch(both_runs):
    new_collector, new_analyzer, _, _ = both_runs
    instrumented = new_collector.counters.instrumented_launches
    assert new_collector.counters.interval_sweeps == instrumented
    assert instrumented == len(new_analyzer.launches)
