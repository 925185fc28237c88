"""A copy's host digest: the device mirror's when the bytes are equal.

``MemoryApiObservation.host_digest`` must always equal
``snapshot_digest(host.data)``.  The collector reuses the mirror's
digest only after comparing the bytes, so the equality has to hold
for every kind of copy: whole, cast, prefix, corrupted in flight, D2H,
and after the mirrors were evicted.  Every registered workload is run
with the same check, and the store's chunk digests checked against a
full rehash, after every API.
"""

import numpy as np
import pytest

from repro.analysis.online import OnlineAnalyzer
from repro.collector.collector import DataCollector
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan
from repro.utils.hashing import chunk_digests, snapshot_digest
from repro.workloads import get_workload
from repro.workloads.registry import workload_names


class CheckedAnalyzer(OnlineAnalyzer):
    """The online analyzer, checking each observation against a full
    rehash before analyzing it."""

    def __init__(self):
        super().__init__()
        self.store = None
        self.host_copies = []
        self.checked_writes = 0

    def on_memory_api(self, obs):
        if obs.host_array is not None:
            assert obs.host_digest == snapshot_digest(obs.host_array.data)
            self.host_copies.append(obs)
        self._check_writes(obs.writes)
        super().on_memory_api(obs)

    def on_launch(self, obs):
        self._check_writes(obs.writes)
        super().on_launch(obs)

    def _check_writes(self, writes):
        for write in writes:
            alloc_id = write.obj.alloc_id
            if not self.store.is_tracked(alloc_id):
                continue
            mirror = self.store.snapshot(alloc_id)
            assert self.store._chunks[alloc_id] == chunk_digests(mirror)
            assert write.digest == snapshot_digest(mirror)
            self.checked_writes += 1


def _attach(rt, **collector_options):
    analyzer = CheckedAnalyzer()
    collector = DataCollector(analyzer, **collector_options)
    analyzer.store = collector.snapshots
    collector.attach(rt)
    return analyzer, collector


@pytest.fixture
def checked():
    rt = GpuRuntime()
    analyzer, collector = _attach(rt)
    return rt, analyzer, collector


def _mirror_digest(collector, alloc):
    return collector.snapshots.digest(alloc.alloc_id)


def test_whole_copy_reuses_the_destination_digest(checked):
    rt, analyzer, collector = checked
    host = HostArray(np.linspace(0, 1, 20480, dtype=np.float32), "h")
    dst = rt.malloc(20480, DType.FLOAT32, "d")
    rt.memcpy_h2d(dst, host)
    assert analyzer.host_copies[-1].host_digest == _mirror_digest(collector, dst)


def test_cast_copy_hashes_the_host_array(checked):
    rt, analyzer, collector = checked
    host = HostArray(np.linspace(0, 1, 64, dtype=np.float64), "h")
    dst = rt.malloc(64, DType.FLOAT32, "d")
    rt.memcpy_h2d(dst, host)
    obs = analyzer.host_copies[-1]
    assert obs.host_digest != _mirror_digest(collector, dst)
    assert obs.host_digest == snapshot_digest(host.data)


def test_prefix_copy_hashes_the_host_array(checked):
    rt, analyzer, collector = checked
    host = HostArray(np.ones(16, np.float32), "h")
    dst = rt.malloc(256, DType.FLOAT32, "d")
    rt.memcpy_h2d(dst, host)
    assert analyzer.host_copies[-1].host_digest != _mirror_digest(collector, dst)


def test_corrupted_copies_hash_the_host_array():
    rt = GpuRuntime()
    rt.fault_injector = FaultInjector(FaultPlan(seed=1, corruption_rate=1.0))
    analyzer, collector = _attach(rt)
    values = np.arange(1024, dtype=np.float32)
    dst = rt.malloc(1024, DType.FLOAT32, "d")
    rt.memcpy_h2d(dst, HostArray(values.copy(), "up"))
    down = HostArray(np.zeros(1024, np.float32), "down")
    rt.memcpy_d2h(down, dst)
    assert rt.fault_injector.counts[FaultKind.CORRUPTION] == 2
    for obs in analyzer.host_copies:
        # The flipped bits sit on one side of each copy only.
        assert obs.host_digest != _mirror_digest(collector, dst)


def test_d2h_copy_reuses_the_source_digest(checked):
    rt, analyzer, collector = checked
    src = rt.upload(np.arange(512, dtype=np.int32), "src")
    host = rt.download(src)
    obs = analyzer.host_copies[-1]
    assert obs.host_sink
    assert obs.host_digest == _mirror_digest(collector, src)
    assert obs.host_digest == snapshot_digest(host)


def test_evicted_mirrors_hash_the_host_array():
    rt = GpuRuntime()
    analyzer, collector = _attach(rt, memory_budget_bytes=1)
    bufs = [rt.malloc(64, DType.FLOAT32, f"b{i}") for i in range(3)]
    assert collector.snapshots.tracked_ids() == []
    rt.memcpy_h2d(bufs[0], HostArray(np.ones(64, np.float32), "h"))
    assert analyzer.host_copies[-1].host_digest is not None


@pytest.mark.parametrize("name", workload_names())
def test_every_workload_keeps_digests_equal_to_a_full_rehash(name):
    rt = GpuRuntime()
    analyzer, _ = _attach(rt)
    get_workload(name)(scale=0.1, seed=0).run_baseline(rt)
    assert analyzer.checked_writes
