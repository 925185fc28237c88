"""The writer's deflate worker: same bytes, same order, bounded memory.

From v2 on, :class:`TraceWriter` compresses frame payloads on one
worker thread.  The file must not notice: every stored payload without
an all-zero 64 KiB chunk (and, up to v3, every stored payload) is the
``zlib.compress(raw, 1)`` of its raw bytes, frames land in the order
they were written, a torn recording still salvages exactly the frames
handed to the writer, and closing the writer stops the worker.  The
caller waits on older frames only while more raw bytes than the
in-flight bound are being compressed.
"""

import json
import os
import subprocess
import sys
import threading
import time
import zlib

import numpy as np
import pytest

import repro
from repro.trace_io import format as trace_format
from repro.trace_io.format import (
    EVENT_LAUNCH,
    EVENT_MALLOC,
    TraceReader,
    TraceWriter,
)


def _frames(path):
    """``(meta, stored payload)`` of every frame, straight from disk."""
    with TraceReader(path) as reader:
        index = reader.frame_index()
    frames = []
    with open(path, "rb") as handle:
        blob = handle.read()
    for offset, _, _ in index:
        meta_len = int.from_bytes(blob[offset + 4 : offset + 8], "little")
        payload_len = int.from_bytes(blob[offset + 8 : offset + 16], "little")
        meta_start = offset + 16
        meta = json.loads(blob[meta_start : meta_start + meta_len])
        start = meta_start + meta_len
        frames.append((meta, blob[start : start + payload_len]))
    return frames


def _snapshots(count, seed=0):
    """Compressible payloads of varied size."""
    rng = np.random.default_rng(seed)
    return [
        np.repeat(rng.integers(0, 7, 64 + 97 * i), 16).astype(np.int32)
        for i in range(count)
    ]


def _deflate_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("ThreadPoolExecutor")
    }


def test_stored_payloads_are_level_one_zlib_of_the_raw_bytes(tmp_path):
    path = str(tmp_path / "v2.vetrace")
    snapshots = _snapshots(12)
    with TraceWriter(path, version=2) as writer:
        for index, snap in enumerate(snapshots):
            writer.write_event(EVENT_LAUNCH, {"seq": index}, {"p0": snap})
    frames = _frames(path)
    assert len(frames) == len(snapshots)
    for (meta, stored), snap in zip(frames, snapshots):
        raw = zlib.decompress(stored)
        assert meta["__codec__"] == {"c": "zlib", "n": len(raw)}
        assert raw == snap.tobytes()
        assert stored == zlib.compress(raw, 1)


def test_frames_stay_in_order_within_the_in_flight_bound(tmp_path, monkeypatch):
    bound = 32 << 10
    monkeypatch.setattr(trace_format, "MAX_IN_FLIGHT_BYTES", bound)
    path = str(tmp_path / "t.vetrace")
    snapshots = _snapshots(40, seed=1)
    with TraceWriter(path) as writer:
        for index, snap in enumerate(snapshots):
            writer.write_event(EVENT_LAUNCH, {"seq": index}, {"p0": snap})
            if index % 3 == 0:  # payload-less frames queue behind the rest
                writer.write_event(EVENT_MALLOC, {"seq": -index}, {})
            # Only the newest frame may push the bytes in flight past
            # the bound.
            pending = writer._pending
            assert len(pending) <= 1 or writer._in_flight <= bound
    with TraceReader(path) as reader:
        events = list(reader.events())
    launches = [(meta, arrays) for kind, meta, arrays in events if kind == EVENT_LAUNCH]
    assert [meta["seq"] for meta, _ in launches] == list(range(len(snapshots)))
    for (_, arrays), snap in zip(launches, snapshots):
        np.testing.assert_array_equal(arrays["p0"], snap)
    assert len(events) == len(snapshots) + len(range(0, len(snapshots), 3))


def test_tear_salvages_every_frame_handed_to_the_writer(tmp_path):
    path = str(tmp_path / "torn.vetrace")
    writer = TraceWriter(path)
    snapshots = _snapshots(16, seed=2)
    for snap in snapshots:
        writer.write_event(EVENT_LAUNCH, {}, {"p0": snap}, delta_keys={"p0": "k"})
    writer.tear()
    assert writer._deflater is None
    with TraceReader(path, salvage=True) as reader:
        assert reader.salvaged_events == writer.events_written == len(snapshots)
        decoded = [arrays["p0"] for _, _, arrays in reader.events()]
    for got, snap in zip(decoded, snapshots):
        np.testing.assert_array_equal(got, snap)


def test_close_stops_the_worker_and_v1_starts_none(tmp_path):
    before = _deflate_threads()
    writer = TraceWriter(str(tmp_path / "v4.vetrace"))
    writer.write_event(EVENT_LAUNCH, {}, {"p0": np.zeros(4096)})
    assert _deflate_threads() - before
    writer.close()
    assert _deflate_threads() == before
    with TraceWriter(str(tmp_path / "v1.vetrace"), version=1) as v1:
        v1.write_event(EVENT_LAUNCH, {}, {"p0": np.zeros(4096)})
        assert _deflate_threads() == before


def test_only_older_frames_past_the_bound_wait(tmp_path, monkeypatch):
    """The newest frame never blocks the caller, and ``bytes_written``
    counts only what is on disk."""
    gate = threading.Event()
    deflate = zlib.compress

    def held(data, level):
        gate.wait(30)
        return deflate(data, level)

    monkeypatch.setattr(zlib, "compress", held)
    monkeypatch.setattr(trace_format, "MAX_IN_FLIGHT_BYTES", 10_000)
    path = tmp_path / "t.vetrace"
    writer = TraceWriter(str(path))
    header_end = writer.bytes_written
    # 32 KiB is past the bound, but the newest frame stays in flight.
    writer.write_event(EVENT_LAUNCH, {}, {"p0": np.zeros(4096)})
    assert writer.bytes_written == header_end
    timer = threading.Timer(0.2, gate.set)
    timer.start()
    started = time.perf_counter()
    # Now the first frame is an older one past the bound: wait for it.
    writer.write_event(EVENT_LAUNCH, {}, {"p0": np.ones(4096)})
    assert time.perf_counter() - started >= 0.15
    assert writer.bytes_written > header_end
    size = writer.close()
    timer.join()
    assert writer.bytes_written == size == path.stat().st_size
    with TraceReader(str(path)) as reader:
        got = [arrays["p0"] for _, _, arrays in reader.events()]
    np.testing.assert_array_equal(got[0], np.zeros(4096))
    np.testing.assert_array_equal(got[1], np.ones(4096))


@pytest.mark.parametrize("module", ["repro.tool.valueexpert", "repro.trace_io"])
def test_importing_the_tool_loads_no_thread_pool(module):
    """The deflate worker's import is paid by writers, not by importers."""
    code = (
        f"import sys, {module}; "
        "sys.exit('concurrent.futures' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr.decode()
