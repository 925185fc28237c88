"""The v4 writer hands zlib only the bytes a reader lacks.

Three writer-side changes keep every frame as it was and shrink what is
deflated:

- each all-zero 64 KiB chunk of a v4 payload is stored as one
  precomputed deflate block inside a standard zlib stream, so the
  stream inflates (and passes its Adler-32 check) under any zlib
  reader, and a payload without such a chunk is still
  ``zlib.compress(payload, 1)`` byte for byte;
- a v4 copy's host array that holds a whole allocation joins that
  allocation's delta chain, so a re-upload of unchanged bytes is stored
  as zeros, while a partial or casting copy stays out of the chain;
- every array is copied once into the payload, and the writer and the
  reader each keep a private copy of a keyed array as its delta base.

v1-v3 writers keep their bytes: no zero-chunk stream, no host keys.
"""

import json
import struct
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.trace_io import TraceReader, TraceRecorder
from repro.trace_io.format import (
    EVENT_LAUNCH,
    EVENT_MEMCPY,
    ZERO_CHUNK,
    TraceWriter,
    _ZERO_BLOCK,
    _deflate,
    _inflate,
)
from repro.workloads import get_workload

_FRAME_HEAD = struct.Struct("<IIQ")


# -- the zero-chunk zlib stream ----------------------------------------------------


@st.composite
def _payloads(draw):
    """Payloads of whole chunks that are zero, noise or zero but for one
    byte, plus a tail: lengths 0, under one chunk, k * 64 KiB +- 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for shape in draw(st.lists(st.sampled_from(["zero", "noise", "one"]), max_size=5)):
        chunk = np.zeros(ZERO_CHUNK, dtype=np.uint8)
        if shape == "noise":
            chunk[:] = rng.integers(0, 4, ZERO_CHUNK)
        elif shape == "one":
            chunk[draw(st.sampled_from([0, ZERO_CHUNK - 1, 12345]))] = 1
        parts.append(chunk)
    tail = draw(st.sampled_from([0, 1, 100, ZERO_CHUNK - 1]))
    parts.append(rng.integers(0, 2, tail).astype(np.uint8) * draw(st.booleans()))
    payload = np.concatenate(parts)
    if draw(st.booleans()) and len(payload):
        payload = payload[:-1]  # a whole number of chunks, less one byte
    return np.ascontiguousarray(payload)


def _has_zero_chunk(payload):
    full = len(payload) // ZERO_CHUNK
    chunks = payload[: full * ZERO_CHUNK].reshape(full, ZERO_CHUNK)
    return bool((~chunks.any(axis=1)).any())


@settings(max_examples=80, deadline=None)
@given(_payloads())
def test_v4_stream_inflates_to_the_payload(payload):
    stream = _deflate(payload, 4)
    raw = payload.tobytes()
    assert zlib.decompress(stream) == raw  # checks the Adler-32 too
    assert _inflate(stream, {"c": "zlib", "n": len(raw)}) == raw
    if not _has_zero_chunk(payload):
        assert stream == zlib.compress(raw, 1)
    for version in (2, 3):
        assert _deflate(payload, version) == zlib.compress(raw, 1)


def test_zero_chunks_are_not_deflated():
    payload = np.zeros(9 * ZERO_CHUNK + 10, dtype=np.uint8)
    payload[ZERO_CHUNK : 2 * ZERO_CHUNK] = np.arange(ZERO_CHUNK) % 251
    stream = _deflate(payload, 4)
    assert stream != zlib.compress(payload, 1)
    assert zlib.decompress(stream) == payload.tobytes()
    # Seven zero chunks in a row after the noise, each the same block.
    assert stream.startswith(b"\x78\x01" + _ZERO_BLOCK)
    assert _ZERO_BLOCK * 7 in stream


# -- which arrays are delta-keyed ------------------------------------------------

N = ZERO_CHUNK  # float32 elements: four 64 KiB chunks


def _record(tmp_path, program, version=4):
    path = str(tmp_path / f"v{version}.vetrace")
    rt = GpuRuntime()
    recorder = TraceRecorder(path, instrument="all", version=version)
    recorder.attach(rt)
    program(rt)
    recorder.detach()
    recorder.close()
    return path


def _frames(path, inflate=True):
    """``(kind, meta, payload)`` per frame, the payload as stored or
    inflated (XOR left in)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    with TraceReader(path) as reader:
        offsets = [offset for offset, _, _ in reader.frame_index()]
    frames = []
    for offset in offsets:
        kind, meta_len, payload_len = _FRAME_HEAD.unpack_from(blob, offset)
        start = offset + _FRAME_HEAD.size
        meta = json.loads(blob[start : start + meta_len])
        payload = blob[start + meta_len : start + meta_len + payload_len]
        if inflate and "__codec__" in meta:
            payload = _inflate(payload, meta["__codec__"])
        frames.append((kind, meta, payload))
    return frames


def _hosts(path):
    """``(meta, host descriptor, host bytes as coded)`` per copy frame."""
    return [
        (meta, desc, payload[desc["offset"] : desc["offset"] + desc["nbytes"]])
        for kind, meta, payload in _frames(path)
        if kind == EVENT_MEMCPY
        for name, desc in meta["__arrays__"].items()
        if name == "host"
    ]


def _key(desc):
    return f"post:{desc['alloc_id']}:{desc['address']}"


def _decoded_hosts(path):
    with TraceReader(path) as reader:
        return [
            arrays["host"]
            for kind, _, arrays in reader.events()
            if kind == EVENT_MEMCPY
        ]


def test_a_reupload_of_the_same_bytes_is_stored_as_zeros(tmp_path):
    data = np.arange(N, dtype=np.float32)

    def program(rt):
        buf = rt.malloc(N, DType.FLOAT32, "buf")
        staging = HostArray(data.copy(), label="staging")
        rt.memcpy_h2d(buf, staging)
        rt.memcpy_h2d(buf, staging)

    path = _record(tmp_path, program)
    (meta, first, _), (_, second, stored) = _hosts(path)
    assert first["dkey"] == second["dkey"] == _key(meta["dst"])
    assert "delta" not in first
    assert second["delta"] is True
    assert not any(stored)
    for host in _decoded_hosts(path):
        np.testing.assert_array_equal(host, data)


def test_partial_and_casting_copies_carry_no_host_key(tmp_path):
    data = np.arange(N, dtype=np.float32)

    def program(rt):
        buf = rt.malloc(N, DType.FLOAT32, "buf")
        rt.memcpy_h2d(buf, HostArray(data[: N // 2].copy()))
        rt.memcpy_h2d(buf, HostArray(np.arange(N, dtype=np.int32)))
        rt.memcpy_d2h(HostArray(np.zeros(N // 2, np.float32)), buf)
        rt.memcpy_d2h(HostArray(np.zeros(N, np.int32)), buf)

    path = _record(tmp_path, program)
    hosts = _hosts(path)
    assert len(hosts) == 4
    assert all("dkey" not in desc for _, desc, _ in hosts)


def test_a_partial_upload_keeps_the_snapshot_chain(tmp_path, fill_kernel):
    """The snapshot after a partial upload is still coded against the
    snapshot before it, not against the partial host array."""

    def program(rt):
        buf = rt.malloc(N, DType.FLOAT32, "buf")
        rt.launch(fill_kernel, N // 256, 256, buf, 1.0)
        rt.memcpy_h2d(buf, HostArray(np.full(N // 2, 2.0, np.float32)))
        rt.launch(fill_kernel, N // 256, 256, buf, 1.0)

    path = _record(tmp_path, program)
    snapshots = [
        meta["__arrays__"]["p0"]
        for kind, meta, _ in _frames(path)
        if kind == EVENT_LAUNCH
    ]
    assert [desc.get("delta", False) for desc in snapshots] == [False, True]
    with TraceReader(path) as reader:
        posts = [
            arrays["p0"] for kind, _, arrays in reader.events() if kind == EVENT_LAUNCH
        ]
    for post in posts:
        np.testing.assert_array_equal(post, np.ones(N, np.float32))


def test_a_full_download_is_keyed_by_its_source(tmp_path):
    data = np.arange(N, dtype=np.float32)

    def program(rt):
        buf = rt.upload(data, "buf")
        rt.download(buf)

    path = _record(tmp_path, program)
    (up_meta, up, _), (down_meta, down, stored) = _hosts(path)
    assert up["dkey"] == _key(up_meta["dst"])
    assert down["dkey"] == _key(down_meta["src"]) == up["dkey"]
    assert down["delta"] is True
    assert not any(stored)
    for host in _decoded_hosts(path):
        np.testing.assert_array_equal(host, data)


# -- one private copy per delta base -----------------------------------------------


def test_a_keyed_array_mutated_after_writing_changes_no_frame(tmp_path):
    path = str(tmp_path / "reuse.vetrace")
    snapshot = np.arange(4096, dtype=np.int64)
    expected = []
    with TraceWriter(path) as writer:
        for step in range(3):
            writer.write_event(
                EVENT_LAUNCH, {}, {"p0": snapshot}, delta_keys={"p0": "k"}
            )
            expected.append(snapshot.copy())
            snapshot[step::7] += 5  # the caller reuses its buffer
    with TraceReader(path) as reader:
        got = [arrays["p0"] for _, _, arrays in reader.events()]
    assert len(got) == len(expected)
    for array, want in zip(got, expected):
        np.testing.assert_array_equal(array, want)


def test_a_listener_mutating_a_yielded_array_keeps_the_chain(tmp_path):
    path = str(tmp_path / "chain.vetrace")
    snapshots = [np.full(4096, step, dtype=np.int32) for step in range(4)]
    with TraceWriter(path) as writer:
        for snap in snapshots:
            writer.write_event(EVENT_LAUNCH, {}, {"p0": snap}, delta_keys={"p0": "k"})
    with TraceReader(path) as reader:
        for (_, _, arrays), snap in zip(reader.events(), snapshots):
            np.testing.assert_array_equal(arrays["p0"], snap)
            arrays["p0"][:] = -1


# -- v1-v3 bytes ---------------------------------------------------------------------


def _lammps(rt):
    get_workload("lammps")(scale=0.5, seed=0).run(rt)


def test_only_v4_writers_skip_zero_chunks_and_key_host_arrays(tmp_path):
    """lammps uploads whole staging buffers, mostly zero: a v4 trace uses
    both changes, a v2 or v3 trace neither."""
    for version in (2, 3, 4):
        path = _record(tmp_path, _lammps, version)
        deflated_whole = [
            stored == zlib.compress(zlib.decompress(stored), 1)
            for _, meta, stored in _frames(path, inflate=False)
            if "__codec__" in meta
        ]
        keyed = [desc for _, desc, _ in _hosts(path) if "dkey" in desc]
        if version < 4:
            assert all(deflated_whole) and not keyed
        else:
            assert not all(deflated_whole) and keyed
