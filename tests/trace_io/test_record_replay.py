"""Recorder/replayer round-trip tests on a synthetic runtime session."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import (
    GpuRuntime,
    HostArray,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemsetEvent,
    RuntimeListener,
)
from repro.trace_io import TraceReader, TraceRecorder, TraceReplayer


class EventLog(RuntimeListener):
    """Remembers every published event for comparisons."""

    def __init__(self, instrument=False):
        self.ends = []
        self._instrument = instrument

    def instrument_kernel(self, kernel, grid, block):
        return self._instrument

    def on_api_end(self, event):
        self.ends.append(event)


def _session(rt, copy_kernel):
    """A little runtime session exercising every API kind."""
    src = rt.upload(np.arange(64, dtype=np.float32), "src")
    dst = rt.malloc(64, DType.FLOAT32, "dst")
    rt.memset(dst, 0)
    rt.launch(copy_kernel, 2, 32, src, dst)
    scratch = rt.malloc(64, DType.FLOAT32, "scratch")
    rt.memcpy_d2d(scratch, dst)
    out = rt.download(scratch)
    rt.free(src)
    rt.free(scratch)
    return dst, out


def _record(tmp_path, rt, copy_kernel, instrument="all"):
    path = str(tmp_path / "session.vetrace")
    recorder = TraceRecorder(path, header={"workload": "t"}, instrument=instrument)
    recorder.attach(rt)
    dst, out = _session(rt, copy_kernel)
    recorder.detach()
    recorder.close()
    return path, dst, out


def test_recorder_counts_every_api_event(tmp_path, rt, copy_kernel):
    path, _, _ = _record(tmp_path, rt, copy_kernel)
    with TraceReader(path) as reader:
        assert reader.footer["events"] == 10  # 3 malloc, 3 memcpy, 1 memset,
        assert len(list(reader.events())) == 10  # 1 launch, 2 free


def test_replay_publishes_events_in_recorded_order(tmp_path, rt, copy_kernel):
    path, _, _ = _record(tmp_path, rt, copy_kernel)
    live = EventLog()
    rt2 = GpuRuntime()
    rt2.subscribe(live)
    # A second identical live session, for field-by-field comparison.
    _session(rt2, copy_kernel)
    replay_log = EventLog()
    with TraceReplayer(path) as replayer:
        replayer.subscribe(replay_log)
        assert replayer.replay() == 10
    assert len(replay_log.ends) == len(live.ends) == 10
    for lhs, rhs in zip(replay_log.ends, live.ends):
        assert type(lhs) is type(rhs)
        assert lhs.seq == rhs.seq
        assert lhs.annotation == rhs.annotation
        assert lhs.stream == rhs.stream
        assert lhs.time_s == pytest.approx(rhs.time_s)


def test_replayed_events_carry_identical_payloads(tmp_path, rt, copy_kernel):
    path, _, _ = _record(tmp_path, rt, copy_kernel)
    live = EventLog(instrument=True)
    rt2 = GpuRuntime()
    rt2.subscribe(live)
    _session(rt2, copy_kernel)
    replay_log = EventLog(instrument=True)
    with TraceReplayer(path) as replayer:
        replayer.subscribe(replay_log)
        replayer.replay()
    for lhs, rhs in zip(replay_log.ends, live.ends):
        if isinstance(lhs, MallocEvent):
            assert lhs.alloc.label == rhs.alloc.label
            assert lhs.alloc.address == rhs.alloc.address
            assert lhs.alloc.size == rhs.alloc.size
        elif isinstance(lhs, MemcpyEvent):
            assert lhs.kind == rhs.kind and lhs.nbytes == rhs.nbytes
            if lhs.host_array is not None:
                np.testing.assert_array_equal(
                    lhs.host_array.data, rhs.host_array.data
                )
        elif isinstance(lhs, MemsetEvent):
            assert lhs.byte_value == rhs.byte_value
            assert lhs.nbytes == rhs.nbytes
        elif isinstance(lhs, KernelLaunchEvent):
            assert lhs.kernel.name == rhs.kernel.name
            assert (lhs.grid, lhs.block) == (rhs.grid, rhs.block)
            assert lhs.instrumented == rhs.instrumented
            assert len(lhs.records) == len(rhs.records)
            for lrec, rrec in zip(lhs.records, rhs.records):
                assert lrec.pc == rrec.pc and lrec.kind == rrec.kind
                np.testing.assert_array_equal(lrec.addresses, rrec.addresses)
                np.testing.assert_array_equal(lrec.values, rrec.values)
                np.testing.assert_array_equal(lrec.thread_ids, rrec.thread_ids)
                np.testing.assert_array_equal(lrec.block_ids, rrec.block_ids)
            assert [
                (a.alloc_id, nr, nw) for a, nr, nw in lhs.touched
            ] == [(a.alloc_id, nr, nw) for a, nr, nw in rhs.touched]


def test_replay_restores_device_contents(tmp_path, rt, copy_kernel):
    path, dst, out = _record(tmp_path, rt, copy_kernel)
    expected = np.arange(64, dtype=np.float32)
    np.testing.assert_array_equal(out, expected)

    seen = {}

    class Sniffer(RuntimeListener):
        def on_api_end(self, event):
            if isinstance(event, KernelLaunchEvent):
                for alloc, _, nwritten in event.touched:
                    if nwritten > 0:
                        seen[alloc.label] = alloc.read_all()

    with TraceReplayer(path) as replayer:
        replayer.subscribe(Sniffer())
        replayer.replay()
    np.testing.assert_array_equal(seen["dst"], expected)


def test_rerecording_a_replay_reproduces_the_event_stream(
    tmp_path, rt, copy_kernel
):
    """The strongest round-trip: record(replay(record(run))) == record(run)."""
    first, _, _ = _record(tmp_path, rt, copy_kernel)
    second = str(tmp_path / "second.vetrace")
    rerecorder = TraceRecorder(second, header={"workload": "t"}, instrument="all")
    with TraceReplayer(first) as replayer:
        replayer.subscribe(rerecorder)
        replayer.replay()
    rerecorder.close()
    with TraceReader(first) as a, TraceReader(second) as b:
        events_a = list(a.events())
        events_b = list(b.events())
    assert len(events_a) == len(events_b)
    for (kind_a, meta_a, arrays_a), (kind_b, meta_b, arrays_b) in zip(
        events_a, events_b
    ):
        assert kind_a == kind_b
        assert meta_a == meta_b
        assert sorted(arrays_a) == sorted(arrays_b)
        for name in arrays_a:
            np.testing.assert_array_equal(arrays_a[name], arrays_b[name])


def test_replay_kernel_stub_raises_when_called(tmp_path, rt, copy_kernel):
    path, _, _ = _record(tmp_path, rt, copy_kernel)
    with TraceReplayer(path) as replayer:
        kernel = replayer.kernels[copy_kernel.name]
        assert kernel.line_map == copy_kernel.line_map
        with pytest.raises(TraceError, match="no entry function"):
            kernel.fn()


def test_follow_mode_recorder_does_not_vote(tmp_path, rt, copy_kernel):
    path = str(tmp_path / "follow.vetrace")
    recorder = TraceRecorder(path, instrument="follow")
    recorder.attach(rt)
    event = rt.launch(copy_kernel, 1, 32, rt.malloc(32), rt.malloc(32))
    recorder.detach()
    recorder.close()
    assert event.instrumented is False
    assert event.records == []


def test_invalid_instrument_mode_rejected(tmp_path):
    with pytest.raises(TraceError, match="instrument"):
        TraceRecorder(str(tmp_path / "x.vetrace"), instrument="sometimes")


def test_replay_listeners_can_narrow_but_not_widen(tmp_path, rt, copy_kernel):
    path, _, _ = _record(tmp_path, rt, copy_kernel)
    passive = EventLog(instrument=False)
    with TraceReplayer(path) as replayer:
        replayer.subscribe(passive)
        replayer.replay()
    launches = [e for e in passive.ends if isinstance(e, KernelLaunchEvent)]
    assert launches and all(not e.instrumented for e in launches)
    assert all(e.records == [] for e in launches)


def _multi_device_session(rt, copy_kernel):
    """A two-device session with a peer-to-peer gradient exchange."""
    rt.ensure_devices(2)
    src = rt.upload(np.arange(64, dtype=np.float32), "src")
    grad = rt.malloc(64, DType.FLOAT32, "grad")
    rt.launch(copy_kernel, 2, 32, src, grad)
    rt.set_device(1)
    recv = rt.malloc(64, DType.FLOAT32, "recv")
    rt.set_device(0)
    rt.memcpy_p2p(recv, grad, stream=1)
    rt.set_device(1)
    out = rt.malloc(64, DType.FLOAT32, "out")
    rt.launch(copy_kernel, 2, 32, recv, out)
    rt.set_device(0)


def _record_multi(tmp_path, copy_kernel, name="multi.vetrace"):
    from repro.gpu.device import DeviceConfig, GpuContext

    rt = GpuRuntime(
        context=GpuContext(
            config=DeviceConfig(global_memory_bytes=4 * 1024 * 1024)
        )
    )
    path = str(tmp_path / name)
    recorder = TraceRecorder(path, header={"workload": "dp"}, instrument="all")
    recorder.attach(rt)
    _multi_device_session(rt, copy_kernel)
    recorder.detach()
    recorder.close()
    return path


def test_multi_device_session_replays_devices_intact(tmp_path, copy_kernel):
    from repro.gpu.runtime import MemcpyKind

    path = _record_multi(tmp_path, copy_kernel)
    log = EventLog()
    with TraceReplayer(path) as replayer:
        replayer.subscribe(log)
        replayer.replay()
    assert {event.device for event in log.ends} == {0, 1}
    p2p = next(
        event
        for event in log.ends
        if isinstance(event, MemcpyEvent)
        and event.kind is MemcpyKind.PEER_TO_PEER
    )
    # Source-device attribution and the cross-device object landing.
    assert p2p.device == 0
    assert p2p.src_alloc.device == 0 and p2p.dst_alloc.device == 1
    # The peer copy's effect is re-applied to the replayed device state.
    np.testing.assert_array_equal(
        p2p.dst_alloc.read_all()[:64], np.arange(64, dtype=np.float32)
    )


def test_multi_device_rerecord_matches_frame_for_frame(tmp_path, copy_kernel):
    """Recording a replay reproduces the original event frames."""
    path = _record_multi(tmp_path, copy_kernel)
    rerecorded = str(tmp_path / "rerecord.vetrace")
    second = TraceRecorder(
        rerecorded, header={"workload": "dp"}, instrument="all"
    )
    with TraceReplayer(path) as replayer:
        replayer.subscribe(second)
        replayer.replay()
    second.close()
    with TraceReader(path) as lhs, TraceReader(rerecorded) as rhs:
        lhs_frames = [(kind, meta) for kind, meta, _ in lhs.events()]
        rhs_frames = [(kind, meta) for kind, meta, _ in rhs.events()]
    assert lhs_frames == rhs_frames
