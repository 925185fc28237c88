"""Damaged frames of a recorded trace fail only as a ``TraceError``.

Each case rewrites one frame of a small recorded bfs trace: a meta block
that is not JSON or not UTF-8, a payload length inflated far past the
file, a zlib payload that inflates past its recorded raw length, and a
codec without a raw length.  A strict reader must raise
:class:`TraceError` carrying the offset of the damaged frame (never a
raw json/zlib exception or a ``MemoryError``), and a resilient replay
must return the prefix profile with the damage in its health report.
"""

import json
import struct
import tracemalloc
import zlib

import pytest

from repro import ToolConfig, ValueExpert
from repro.errors import DegradedProfileWarning, TraceError
from repro.trace_io.format import MAGIC, TraceReader
from repro.workloads import get_workload

_FOOTER_OFFSET = struct.Struct("<Q")
_FOOTER_OFFSET_POS = len(MAGIC) + 4
_FRAME_HEAD = struct.Struct("<IIQ")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A small bfs recording and the index of one zlib-coded frame."""
    path = str(tmp_path_factory.mktemp("decode") / "bfs.vetrace")
    ValueExpert(ToolConfig()).profile(
        get_workload("rodinia/bfs")(scale=0.1, seed=0), record_path=path
    )
    with open(path, "rb") as handle:
        blob = handle.read()
    with TraceReader(path) as reader:
        offsets = [offset for offset, _, _ in reader.frame_index()]
    coded = [
        index
        for index, offset in enumerate(offsets)
        if index >= 2 and b'"__codec__"' in _split(blob, offset)[1]
    ]
    return blob, offsets, coded[0]


def _split(blob, offset):
    """``(kind, meta, payload)`` of the frame at ``offset``."""
    kind, meta_len, payload_len = _FRAME_HEAD.unpack_from(blob, offset)
    meta_start = offset + _FRAME_HEAD.size
    payload_start = meta_start + meta_len
    return (
        kind,
        blob[meta_start:payload_start],
        blob[payload_start : payload_start + payload_len],
    )


def _rewrite(recorded, tmp_path, edit):
    """Write the recording with its coded frame replaced by ``edit``.

    ``edit(meta, payload)`` returns ``(meta, payload, payload_len)``;
    the footer offset is moved by however much the frame grew.
    """
    blob, offsets, target = recorded
    start, end = offsets[target], offsets[target + 1]
    kind, meta, payload = _split(blob, start)
    meta, payload, payload_len = edit(meta, payload)
    frame = _FRAME_HEAD.pack(kind, len(meta), payload_len) + meta + payload
    out = bytearray(blob[:start] + frame + blob[end:])
    (footer,) = _FOOTER_OFFSET.unpack_from(out, _FOOTER_OFFSET_POS)
    _FOOTER_OFFSET.pack_into(
        out, _FOOTER_OFFSET_POS, footer + len(frame) - (end - start)
    )
    path = tmp_path / "damaged.vetrace"
    path.write_bytes(bytes(out))
    return str(path), start


def _recode(meta, payload, codec):
    """Re-encode a coded frame's meta with a replacement codec entry."""
    decoded = json.loads(meta)
    if codec is None:
        del decoded["__codec__"]["n"]
    else:
        decoded["__codec__"] = codec
    return json.dumps(decoded).encode(), payload, len(payload)


def _bad_json(meta, payload):
    return b"!" + meta[1:], payload, len(payload)


def _bad_utf8(meta, payload):
    return b"\xfb" + meta[1:], payload, len(payload)


def _inflated_length(meta, payload):
    return meta, payload, 2**40


def _inflates_past_n(meta, payload):
    raw_length = len(zlib.decompress(payload))
    return _recode(meta, payload, {"c": "zlib", "n": raw_length // 2})


def _missing_n(meta, payload):
    return _recode(meta, payload, None)


DAMAGE = [_bad_json, _bad_utf8, _inflated_length, _inflates_past_n, _missing_n]


@pytest.mark.parametrize("edit", DAMAGE, ids=lambda edit: edit.__name__[1:])
def test_strict_reader_raises_trace_error_at_the_damaged_frame(
    recorded, tmp_path, edit
):
    path, damaged_offset = _rewrite(recorded, tmp_path, edit)
    with TraceReader(path) as reader:
        with pytest.raises(TraceError) as err:
            for _ in reader.events():
                pass
    assert err.value.last_good_offset == damaged_offset


@pytest.mark.parametrize("edit", DAMAGE, ids=lambda edit: edit.__name__[1:])
def test_strict_replay_raises_trace_error(recorded, tmp_path, edit):
    path, _ = _rewrite(recorded, tmp_path, edit)
    with pytest.raises(TraceError):
        ValueExpert(ToolConfig()).profile_from_trace(path)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("edit", DAMAGE, ids=lambda edit: edit.__name__[1:])
def test_resilient_replay_reports_the_damage(recorded, tmp_path, edit, shards):
    path, _ = _rewrite(recorded, tmp_path, edit)
    with pytest.warns(DegradedProfileWarning):
        profile = ValueExpert(ToolConfig(resilient=True)).profile_from_trace(
            path, shards=shards
        )
    assert profile.health.workload_aborted
    assert profile.health.abort_reason.startswith("TraceError")


def test_zlib_bomb_is_refused_without_inflating_it(recorded, tmp_path):
    """64 MiB of zeros recorded as 16 raw bytes: decoding stays small."""
    packer = zlib.compressobj()
    bomb = b"".join(packer.compress(bytes(1 << 20)) for _ in range(64))
    bomb += packer.flush()

    def edit(meta, payload):
        return _recode(meta, bomb, {"c": "zlib", "n": 16})

    path, damaged_offset = _rewrite(recorded, tmp_path, edit)
    tracemalloc.start()
    try:
        with TraceReader(path) as reader:
            with pytest.raises(TraceError) as err:
                for _ in reader.events():
                    pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.last_good_offset == damaged_offset
    assert peak < 8 << 20


def test_undamaged_rewrite_is_identical(recorded, tmp_path):
    """The rewrite helper itself changes nothing when the edit is a no-op."""
    path, _ = _rewrite(
        recorded, tmp_path, lambda meta, payload: (meta, payload, len(payload))
    )
    assert open(path, "rb").read() == recorded[0]


def test_corrupt_header_is_a_trace_error(recorded, tmp_path):
    blob = bytearray(recorded[0])
    header_start = _FOOTER_OFFSET_POS + _FOOTER_OFFSET.size
    blob[header_start + 4] ^= 0xFF  # first byte of the header JSON
    path = tmp_path / "header.vetrace"
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError) as err:
        TraceReader(str(path))
    assert err.value.last_good_offset == header_start


def test_corrupt_footer_is_a_trace_error(recorded, tmp_path):
    blob = bytearray(recorded[0])
    (footer,) = _FOOTER_OFFSET.unpack_from(blob, _FOOTER_OFFSET_POS)
    blob[footer + 8] = ord("!")  # first byte of the footer JSON
    path = tmp_path / "footer.vetrace"
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError) as err:
        TraceReader(str(path))
    assert err.value.last_good_offset == footer
