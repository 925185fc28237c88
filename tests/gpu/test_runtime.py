"""Tests for the CUDA-like runtime and its event bus."""

import numpy as np
import pytest

from repro.errors import InvalidValueError, KernelLaunchError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import (
    FreeEvent,
    GpuRuntime,
    HostArray,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemcpyKind,
    MemsetEvent,
    RuntimeListener,
)


class RecordingListener(RuntimeListener):
    """Captures the event stream for assertions."""

    def __init__(self, instrument=False):
        self.ends = []
        self.instrument = instrument

    def on_api_end(self, event):
        self.ends.append(event)

    def instrument_kernel(self, kernel, grid, block):
        return self.instrument


def test_malloc_event_published(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    alloc = rt.malloc(16, DType.FLOAT32, "arr")
    assert isinstance(listener.ends[-1], MallocEvent)
    assert listener.ends[-1].alloc is alloc


def test_free_event_published(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    alloc = rt.malloc(16, DType.FLOAT32)
    rt.free(alloc)
    assert isinstance(listener.ends[-1], FreeEvent)


def test_memcpy_h2d_copies_values(rt):
    alloc = rt.malloc(32, DType.FLOAT32)
    data = np.arange(32, dtype=np.float32)
    rt.memcpy_h2d(alloc, HostArray(data))
    assert np.array_equal(alloc.read_all()[:32], data)


def test_memcpy_d2h_copies_values(rt):
    alloc = rt.malloc(32, DType.INT32)
    alloc.write_all(np.arange(alloc.nelems, dtype=np.int32))
    host = HostArray(np.zeros(32, np.int32))
    rt.memcpy_d2h(host, alloc)
    assert np.array_equal(host.data, np.arange(32, dtype=np.int32))


def test_memcpy_d2d_copies_values(rt):
    src = rt.malloc(16, DType.FLOAT32)
    dst = rt.malloc(16, DType.FLOAT32)
    src.write_all(np.full(src.nelems, 5.0, np.float32))
    rt.memcpy_d2d(dst, src)
    assert np.all(dst.read_all() == 5.0)


def test_memcpy_events_carry_direction(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    alloc = rt.malloc(16, DType.FLOAT32)
    rt.memcpy_h2d(alloc, HostArray(np.zeros(16, np.float32)))
    rt.memcpy_d2h(HostArray(np.zeros(16, np.float32)), alloc)
    kinds = [e.kind for e in listener.ends if isinstance(e, MemcpyEvent)]
    assert kinds == [MemcpyKind.HOST_TO_DEVICE, MemcpyKind.DEVICE_TO_HOST]


def test_memset_fills_bytes(rt):
    alloc = rt.malloc(16, DType.INT32)
    rt.memset(alloc, 0xFF)
    assert np.all(alloc.read_all() == -1)


def test_memset_rejects_non_byte_values(rt):
    alloc = rt.malloc(16, DType.INT32)
    with pytest.raises(InvalidValueError):
        rt.memset(alloc, 256)


def test_memset_event_published(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    alloc = rt.malloc(16, DType.INT32)
    rt.memset(alloc, 0)
    event = listener.ends[-1]
    assert isinstance(event, MemsetEvent)
    assert event.nbytes == alloc.size


def test_launch_returns_event_with_stats(rt, fill_kernel):
    alloc = rt.malloc(256, DType.FLOAT32)
    event = rt.launch(fill_kernel, 1, 256, alloc, 2.0)
    assert isinstance(event, KernelLaunchEvent)
    assert event.stats.stores == 256
    assert event.time_s > 0
    assert np.all(alloc.read_all() == 2.0)


def test_launch_rejects_plain_functions(rt):
    with pytest.raises(KernelLaunchError):
        rt.launch(lambda ctx: None, 1, 32)


def test_launch_rejects_bad_geometry(rt, fill_kernel):
    alloc = rt.malloc(32, DType.FLOAT32)
    with pytest.raises(InvalidValueError):
        rt.launch(fill_kernel, 0, 32, alloc, 1.0)
    with pytest.raises(InvalidValueError):
        rt.launch(fill_kernel, 1, 100000, alloc, 1.0)


def test_instrumentation_requested_by_listener(rt, fill_kernel):
    listener = RecordingListener(instrument=True)
    rt.subscribe(listener)
    alloc = rt.malloc(64, DType.FLOAT32)
    event = rt.launch(fill_kernel, 1, 64, alloc, 1.0)
    assert event.instrumented
    assert len(event.records) == 1


def test_no_instrumentation_without_request(rt, fill_kernel):
    listener = RecordingListener(instrument=False)
    rt.subscribe(listener)
    alloc = rt.malloc(64, DType.FLOAT32)
    event = rt.launch(fill_kernel, 1, 64, alloc, 1.0)
    assert not event.instrumented
    assert event.records == []


def test_launch_event_reads_writes(rt, acc_kernel):
    alloc = rt.malloc(64, DType.FLOAT32)
    event = rt.launch(acc_kernel, 1, 64, alloc, 1.0)
    assert [(a.label, nread, nwritten) for a, nread, nwritten in event.touched] == [
        (alloc.label, alloc.size, alloc.size)
    ]


def test_times_accumulate(rt, fill_kernel):
    alloc = rt.malloc(1024, DType.FLOAT32)
    before_kernel = rt.times.kernel_time
    before_memory = rt.times.memory_time
    rt.launch(fill_kernel, 4, 256, alloc, 0.0)
    rt.memset(alloc, 0)
    assert rt.times.kernel_time > before_kernel
    assert rt.times.memory_time > before_memory
    assert "fill_constant" in rt.times.kernel_time_by_name


def test_upload_download_roundtrip(rt):
    data = np.arange(100, dtype=np.float64)
    alloc = rt.upload(data, "roundtrip")
    assert alloc.dtype is DType.FLOAT64
    result = rt.download(alloc)
    assert np.array_equal(result[:100], data)


def test_subscribe_twice_rejected(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    with pytest.raises(InvalidValueError):
        rt.subscribe(listener)


def test_unsubscribe_stops_events(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    rt.malloc(16, DType.FLOAT32)
    count = len(listener.ends)
    rt.unsubscribe(listener)
    rt.malloc(16, DType.FLOAT32)
    assert len(listener.ends) == count


def test_sequence_numbers_increase(rt):
    listener = RecordingListener()
    rt.subscribe(listener)
    rt.malloc(16, DType.FLOAT32)
    rt.malloc(16, DType.FLOAT32)
    seqs = [e.seq for e in listener.ends]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
