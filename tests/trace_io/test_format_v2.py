"""Format v2: compression, delta snapshots, and error hardening.

Covers the compact encoding (per-frame zlib, XOR delta of keyed
payloads), version negotiation against v1, and the reader/writer
regressions fixed alongside it: corrupt array descriptors surface as a
salvageable :class:`TraceError` (never a raw numpy exception), and a
closed writer reports its final file size instead of 0.
"""

import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace_io.format import (
    EVENT_FREE,
    EVENT_LAUNCH,
    EVENT_MALLOC,
    EVENT_MEMCPY,
    MAGIC,
    SUPPORTED_VERSIONS,
    TraceReader,
    TraceWriter,
)


def _path(tmp_path, name="t.vetrace"):
    return str(tmp_path / name)


def _read_all(path, salvage=False):
    with TraceReader(path, salvage=salvage) as reader:
        return list(reader.events())


def _assert_events_equal(got, expected):
    assert len(got) == len(expected)
    for (gk, gm, ga), (ek, em, ea) in zip(got, expected):
        assert gk == ek
        assert gm == em
        assert set(ga) == set(ea)
        for name in ea:
            assert ga[name].dtype == ea[name].dtype
            assert ga[name].shape == ea[name].shape
            np.testing.assert_array_equal(ga[name], ea[name])


# -- compression and delta encoding -----------------------------------------


def test_v2_compresses_compressible_payloads(tmp_path):
    v1, v2 = _path(tmp_path, "v1.vetrace"), _path(tmp_path, "v2.vetrace")
    arrays = {"a": np.zeros(65536, dtype=np.float64)}
    with TraceWriter(v1, version=1) as w1, TraceWriter(v2) as w2:
        w1.write_event(EVENT_MALLOC, {"x": 1}, dict(arrays))
        w2.write_event(EVENT_MALLOC, {"x": 1}, dict(arrays))
    assert os.path.getsize(v2) < os.path.getsize(v1) / 10
    _assert_events_equal(_read_all(v2), _read_all(v1))


def test_incompressible_payloads_stay_raw(tmp_path):
    path = _path(tmp_path)
    rng = np.random.default_rng(7)
    noise = rng.integers(0, 256, 4096, dtype=np.uint8)
    with TraceWriter(path) as writer:
        writer.write_event(EVENT_MALLOC, {}, {"noise": noise})
    blob = open(path, "rb").read()
    assert noise.tobytes() in blob  # stored verbatim, no codec marker
    assert b"__codec__" not in blob
    np.testing.assert_array_equal(_read_all(path)[0][2]["noise"], noise)


def test_delta_encoding_shrinks_repeated_snapshots(tmp_path):
    """Snapshots differing in a handful of elements collapse to ~zeros."""
    base = np.arange(32768, dtype=np.float64)
    snapshots = []
    for step in range(8):
        snap = base.copy()
        snap[step] = -1.0  # one element changes per "launch"
        snapshots.append(snap)

    def record(path, version):
        with TraceWriter(path, version=version) as writer:
            for snap in snapshots:
                writer.write_event(
                    EVENT_LAUNCH,
                    {"kernel": "k"},
                    {"p0": snap},
                    delta_keys={"p0": "post:1:0x1000"},
                )
        return os.path.getsize(path)

    v1_size = record(_path(tmp_path, "v1.vetrace"), 1)
    v2_size = record(_path(tmp_path, "v2.vetrace"), 2)
    assert v2_size * 3 < v1_size
    _assert_events_equal(
        _read_all(_path(tmp_path, "v2.vetrace")),
        _read_all(_path(tmp_path, "v1.vetrace")),
    )


def test_release_delta_breaks_the_chain(tmp_path):
    """After release_delta the next keyed payload is a fresh base."""
    path = _path(tmp_path)
    key = "post:9:0x10"
    a = np.full(1024, 3, dtype=np.int64)
    b = np.full(1024, 4, dtype=np.int64)
    with TraceWriter(path) as writer:
        writer.write_event(EVENT_LAUNCH, {}, {"p0": a}, delta_keys={"p0": key})
        writer.release_delta(key)
        writer.write_event(EVENT_FREE, {}, {})
        writer.write_event(EVENT_LAUNCH, {}, {"p0": b}, delta_keys={"p0": key})
    events = _read_all(path)
    np.testing.assert_array_equal(events[0][2]["p0"], a)
    np.testing.assert_array_equal(events[2][2]["p0"], b)
    # The second keyed frame must not be delta-encoded (its base was
    # released), so its descriptor carries no "delta" flag on disk.
    with TraceReader(path) as reader:
        metas = []
        reader._file.seek(reader._events_start)
        for _ in range(3):
            head = reader._read_exact(16)
            _, meta_len, payload_len = struct.unpack("<IIQ", head)
            metas.append(json.loads(reader._read_exact(meta_len)))
            reader._file.seek(payload_len, 1)
    assert not metas[0]["__arrays__"]["p0"].get("delta")
    assert not metas[2]["__arrays__"]["p0"].get("delta")


def test_events_can_be_iterated_twice(tmp_path):
    """Delta state resets per events() call; re-iteration is identical."""
    path = _path(tmp_path)
    snaps = [np.arange(512, dtype=np.int32) + i for i in range(4)]
    with TraceWriter(path) as writer:
        for snap in snaps:
            writer.write_event(
                EVENT_LAUNCH, {}, {"p0": snap}, delta_keys={"p0": "k"}
            )
    with TraceReader(path) as reader:
        first = [(k, m, {n: a.copy() for n, a in arrs.items()})
                 for k, m, arrs in reader.events()]
        second = list(reader.events())
    _assert_events_equal(second, first)


# -- frame index ----------------------------------------------------------------


def test_decoded_frame_index_weighs_payloads_not_metadata(tmp_path):
    """Shard-planning weights: a frame without a payload weighs only its
    header however long its meta block (a deep host call path), and a
    compressed payload counts at its inflated length."""
    path = _path(tmp_path)
    deep = {"call_path": [["frame.py", line, "caller"] for line in range(200)]}
    payload = np.zeros(4096, dtype=np.float64)
    with TraceWriter(path) as writer:
        writer.write_event(EVENT_MALLOC, deep, {})
        writer.write_event(EVENT_LAUNCH, deep, {"p0": payload})
        writer.write_event(EVENT_FREE, {}, {})
    with TraceReader(path) as reader:
        on_disk = reader.frame_index()
        decoded = reader.frame_index(decoded=True)
    head = TraceReader._FRAME_HEAD
    assert [kind for _, kind, _ in decoded] == [
        EVENT_MALLOC, EVENT_LAUNCH, EVENT_FREE,
    ]
    assert on_disk[0][2] > head + 4000  # the call path is on disk...
    assert decoded[0][2] == decoded[2][2] == head  # ...but weighs nothing
    assert on_disk[1][2] < payload.nbytes  # compressed on disk
    assert decoded[1][2] == head + payload.nbytes


# -- version negotiation ------------------------------------------------------


def test_v1_writer_produces_a_v1_trace(tmp_path):
    path = _path(tmp_path)
    payload = np.arange(4096, dtype=np.int64)
    with TraceWriter(path, version=1) as writer:
        writer.write_event(
            EVENT_LAUNCH, {}, {"p0": payload}, delta_keys={"p0": "k"}
        )
        writer.write_event(
            EVENT_LAUNCH, {}, {"p0": payload}, delta_keys={"p0": "k"}
        )
    blob = open(path, "rb").read()
    assert b"__codec__" not in blob and b"dkey" not in blob
    assert blob.count(payload.tobytes()) == 2  # raw, never delta'd
    with TraceReader(path) as reader:
        assert reader.version == 1
        events = list(reader.events())
    np.testing.assert_array_equal(events[1][2]["p0"], payload)


def test_writer_rejects_unknown_version(tmp_path):
    with pytest.raises(TraceError, match="version"):
        TraceWriter(_path(tmp_path), version=max(SUPPORTED_VERSIONS) + 1)


def test_reader_names_supported_versions(tmp_path):
    path = _path(tmp_path)
    TraceWriter(path).close()
    data = bytearray(open(path, "rb").read())
    data[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
    with open(path, "wb") as handle:
        handle.write(data)
    with pytest.raises(
        TraceError, match=re.escape(str(sorted(SUPPORTED_VERSIONS)))
    ):
        TraceReader(path)


def test_v2_trace_salvages_after_tear(tmp_path):
    path = _path(tmp_path)
    writer = TraceWriter(path)
    snap = np.arange(2048, dtype=np.float32)
    writer.write_event(EVENT_LAUNCH, {}, {"p0": snap}, delta_keys={"p0": "k"})
    writer.write_event(EVENT_LAUNCH, {}, {"p0": snap}, delta_keys={"p0": "k"})
    writer.tear()
    with pytest.raises(TraceError, match="never closed"):
        TraceReader(path)
    with TraceReader(path, salvage=True) as reader:
        assert reader.truncated
        events = list(reader.events())
    assert len(events) == 2
    np.testing.assert_array_equal(events[1][2]["p0"], snap)


# -- corrupt descriptors surface as salvageable TraceError -------------------


def _corrupt_second_frame(tmp_path, mutate):
    """Write two frames, corrupt the second's meta JSON in place."""
    path = _path(tmp_path)
    with TraceWriter(path, version=1) as writer:
        writer.write_event(EVENT_MALLOC, {}, {"a": np.arange(8)})
        writer.write_event(EVENT_LAUNCH, {}, {"b": np.arange(8)})
    with TraceReader(path) as reader:
        offsets = [offset for offset, _, _ in reader.frame_index()]
    blob = bytearray(open(path, "rb").read())
    mutate(blob)
    with open(path, "wb") as handle:
        handle.write(blob)
    return path, offsets[1]


def test_corrupt_dtype_is_a_trace_error_with_offset(tmp_path):
    def mutate(blob):
        index = blob.rindex(b'"dtype":"int64"')
        blob[index:index + 15] = b'"dtype":"inx64"'

    path, second_offset = _corrupt_second_frame(tmp_path, mutate)
    with TraceReader(path) as reader:
        stream = reader.events()
        next(stream)  # the first frame still decodes
        with pytest.raises(TraceError, match="corrupt array descriptor") as err:
            next(stream)
    assert err.value.last_good_offset == second_offset


def test_corrupt_nbytes_is_a_trace_error_with_offset(tmp_path):
    def mutate(blob):
        index = blob.rindex(b'"nbytes":64')
        blob[index:index + 11] = b'"nbytes":99'  # no longer divides int64

    path, second_offset = _corrupt_second_frame(tmp_path, mutate)
    with TraceReader(path) as reader:
        stream = reader.events()
        next(stream)
        with pytest.raises(TraceError, match="corrupt array descriptor") as err:
            next(stream)
    assert err.value.last_good_offset == second_offset


def test_corrupt_shape_is_a_trace_error_not_numpy_error(tmp_path):
    def mutate(blob):
        index = blob.rindex(b'"shape":[8]')
        blob[index:index + 11] = b'"shape":[9]'

    path, second_offset = _corrupt_second_frame(tmp_path, mutate)
    with TraceReader(path) as reader:
        stream = reader.events()
        next(stream)
        with pytest.raises(TraceError) as err:
            next(stream)
    assert err.value.last_good_offset == second_offset


# -- bytes_written after close -----------------------------------------------


def test_closed_writer_reports_final_file_size(tmp_path):
    path = _path(tmp_path)
    writer = TraceWriter(path)
    writer.write_event(EVENT_MALLOC, {}, {"a": np.arange(100)})
    writer.close()
    assert writer.bytes_written == os.path.getsize(path)
    assert writer.bytes_written > 0


def test_torn_writer_still_reports_zero(tmp_path):
    writer = TraceWriter(_path(tmp_path))
    writer.write_event(EVENT_MALLOC, {}, {})
    writer.tear()
    assert writer.bytes_written == 0


# -- property: v2 round-trips exactly what v1 does ---------------------------

_DTYPES = [np.uint8, np.int32, np.int64, np.float32, np.float64]

_array = st.builds(
    lambda dtype, values: np.array(values, dtype=np.int8).astype(dtype),
    st.sampled_from(_DTYPES),
    st.lists(st.integers(min_value=-120, max_value=120), max_size=48),
)

_event = st.tuples(
    st.sampled_from([EVENT_MALLOC, EVENT_FREE, EVENT_MEMCPY, EVENT_LAUNCH]),
    st.dictionaries(
        st.sampled_from(["seq", "kernel", "grid", "device"]),
        st.one_of(st.integers(min_value=0, max_value=9), st.text(max_size=6)),
        max_size=3,
    ),
    st.dictionaries(st.sampled_from(["p0", "p1", "host"]), _array, max_size=3),
    st.booleans(),  # register arrays under delta keys?
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_event, max_size=12))
def test_v2_round_trip_matches_v1(tmp_path_factory, events):
    tmp_path = tmp_path_factory.mktemp("v2prop")
    v1, v2 = _path(tmp_path, "v1.vetrace"), _path(tmp_path, "v2.vetrace")
    with TraceWriter(v1, version=1) as w1, TraceWriter(v2, version=2) as w2:
        for kind, meta, arrays, keyed in events:
            delta_keys = (
                {name: f"dk:{name}" for name in arrays} if keyed else None
            )
            w1.write_event(kind, meta, arrays, delta_keys=delta_keys)
            w2.write_event(kind, meta, arrays, delta_keys=delta_keys)
    got_v1 = _read_all(v1)
    got_v2 = _read_all(v2)
    _assert_events_equal(got_v2, got_v1)
    _assert_events_equal(
        got_v2,
        [(kind, meta, arrays) for kind, meta, arrays, _ in events],
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(_event, max_size=12))
def test_v3_round_trip_is_exact(tmp_path_factory, events):
    """v3 frames (device key and all) read back exactly as written."""
    tmp_path = tmp_path_factory.mktemp("v3prop")
    path = _path(tmp_path, "v3.vetrace")
    with TraceWriter(path, version=3) as writer:
        for kind, meta, arrays, keyed in events:
            delta_keys = (
                {name: f"dk:{name}" for name in arrays} if keyed else None
            )
            writer.write_event(kind, meta, arrays, delta_keys=delta_keys)
    _assert_events_equal(
        _read_all(path),
        [(kind, meta, arrays) for kind, meta, arrays, _ in events],
    )


# -- format v3: device on every frame ----------------------------------------


def test_v3_container_matches_v2_byte_for_byte(tmp_path):
    """v3 changes only the meta schema, not the container encoding."""
    v2, v3 = _path(tmp_path, "v2.vetrace"), _path(tmp_path, "v3.vetrace")
    snap = np.arange(8192, dtype=np.float64)
    for path, version in ((v2, 2), (v3, 3)):
        with TraceWriter(path, version=version) as writer:
            for _ in range(2):
                writer.write_event(
                    EVENT_LAUNCH,
                    {"device": 1, "seq": 0},
                    {"p0": snap},
                    delta_keys={"p0": "k"},
                )
    blob_v2 = open(v2, "rb").read()
    blob_v3 = open(v3, "rb").read()
    # Only the version word differs.
    assert blob_v2[: len(MAGIC)] == blob_v3[: len(MAGIC)]
    assert blob_v2[len(MAGIC) + 4 :] == blob_v3[len(MAGIC) + 4 :]
    _assert_events_equal(_read_all(v3), _read_all(v2))


def _write_pre_v3_trace(path, version):
    """Handcraft a trace whose metas lack the v3 ``device`` keys."""
    alloc = {
        "alloc_id": 1,
        "address": 0x7F0000000000,
        "size": 32,
        "dtype": "float32",
        "label": "legacy",
        "freed": False,
    }
    common = {
        "seq": 0,
        "time_s": 0.0,
        "annotation": [],
        "stream": 2,
        "call_path": None,
    }
    with TraceWriter(path, version=version) as writer:
        writer.write_event(EVENT_MALLOC, dict(common, alloc=alloc), {})
        writer.write_event(
            EVENT_MEMCPY,
            dict(
                common,
                seq=1,
                kind="h2d",
                nbytes=32,
                dst=alloc,
                src=None,
                host_label="h",
            ),
            {"host": np.zeros(8, dtype=np.float32)},
        )


@pytest.mark.parametrize("version", [1, 2])
def test_pre_v3_traces_decode_as_device_zero(tmp_path, version):
    """Traces recorded before multi-device replay entirely on device 0."""
    from repro.gpu.runtime import RuntimeListener
    from repro.trace_io.replayer import TraceReplayer

    path = _path(tmp_path)
    _write_pre_v3_trace(path, version)
    seen = []

    class Capture(RuntimeListener):
        def on_api_end(self, event):
            seen.append(event)

    with TraceReplayer(path) as replayer:
        replayer.subscribe(Capture())
        replayer.replay()
    assert len(seen) == 2
    assert all(event.device == 0 for event in seen)
    assert seen[0].alloc.device == 0
