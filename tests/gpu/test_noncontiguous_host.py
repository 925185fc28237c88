"""Device-to-host copies and host corruption write through the host
array itself, in C order, whatever its strides.

``reshape(-1)`` of an array that is not C-contiguous is a copy, so a
write through it is lost.  A strided slice, a Fortran-ordered array and
a transposed one must see the copied prefix, and the bit flips of an
injected corruption, exactly where a C-contiguous array would.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.online import OnlineAnalyzer
from repro.collector.collector import DataCollector
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.resilience.faults import FaultInjector, FaultKind, FaultPlan
from repro.utils.hashing import snapshot_digest


def _strided():
    return np.zeros((8, 16), np.float32)[::2]


def _fortran():
    return np.zeros((4, 16), np.float32, order="F")


def _transposed():
    return np.zeros((16, 4), np.float32).T


HOSTS = {"strided": _strided, "fortran": _fortran, "transposed": _transposed}


def _device_buffer(rt, count):
    src = rt.malloc(count, DType.FLOAT32, "d")
    rt.memcpy_h2d(src, HostArray(np.arange(1, count + 1, dtype=np.float32), "up"))
    return src


@pytest.mark.parametrize("make", sorted(HOSTS))
def test_d2h_fills_a_non_contiguous_host(make):
    rt = GpuRuntime()
    host = HOSTS[make]()
    assert not host.flags.c_contiguous
    rt.memcpy_d2h(HostArray(host, "h"), _device_buffer(rt, 64))
    assert np.array_equal(host, np.arange(1, 65, dtype=np.float32).reshape(4, 16))


def test_d2h_prefix_lands_in_c_order():
    rt = GpuRuntime()
    host = np.full((16, 32), -1.0, np.float32)[::2]
    rt.memcpy_d2h(HostArray(host, "h"), _device_buffer(rt, 64))
    expected = np.full(256, -1.0, np.float32)
    expected[:64] = np.arange(1, 65)
    assert np.array_equal(host.ravel(), expected)


def test_d2h_into_a_contiguous_host_makes_no_copy():
    rt = GpuRuntime()
    src = _device_buffer(rt, 1 << 18)
    host = np.zeros(1 << 18, np.float32)
    tracemalloc.start()
    try:
        rt.memcpy_d2h(HostArray(host, "h"), src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert host[-1] == 1 << 18
    assert peak < host.nbytes // 2


@pytest.mark.parametrize("make", sorted(HOSTS))
def test_corruption_flips_bits_of_a_non_contiguous_host(make):
    host = HOSTS[make]()
    host[...] = np.arange(64, dtype=np.float32).reshape(4, 16)
    contiguous = np.ascontiguousarray(host)
    for data in (host, contiguous):
        injector = FaultInjector(FaultPlan(seed=0, corruption_rate=1.0))
        injector.maybe_corrupt(host=HostArray(data, "h"))
        assert injector.counts[FaultKind.CORRUPTION] == 1
    assert not np.array_equal(host, np.arange(64, dtype=np.float32).reshape(4, 16))
    # The same seed flips the same bits, counted in C order.
    assert host.tobytes() == contiguous.tobytes()


class _HostDigests(OnlineAnalyzer):
    def __init__(self):
        super().__init__()
        self.copies = []

    def on_memory_api(self, obs):
        if obs.host_array is not None:
            self.copies.append((obs.host_digest, obs.host_array.data))
        super().on_memory_api(obs)


@pytest.mark.parametrize("make", sorted(HOSTS))
def test_d2h_host_digest_matches_the_written_host(make):
    rt = GpuRuntime()
    analyzer = _HostDigests()
    DataCollector(analyzer).attach(rt)
    host = HOSTS[make]()
    rt.memcpy_d2h(HostArray(host, "h"), _device_buffer(rt, 64))
    digest, data = analyzer.copies[-1]
    assert data is host
    assert digest == snapshot_digest(host)
    assert digest == snapshot_digest(np.arange(1, 65, dtype=np.float32))
