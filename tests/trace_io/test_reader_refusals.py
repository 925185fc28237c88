"""A refused trace leaves no open file, and a malformed copy frame is
refused with a typed error.

Every way :class:`TraceReader` can refuse a file (bad magic, an
unsupported version, an unclosed recording in strict mode, a footer
offset outside the file, a header or footer length past the end, a
header or footer that is not JSON, a file too short for its fixed
head) must close the file before the :class:`TraceError` propagates:
with ``ResourceWarning`` turned into an error, collecting the refused
reader reports nothing.
"""

import gc
import json
import struct
import sys
import warnings

import pytest

from repro import ToolConfig, ValueExpert
from repro.errors import InvalidValueError, TraceError
from repro.trace_io import TraceReplayer
from repro.trace_io.format import EVENT_MEMCPY, MAGIC, TraceReader
from repro.workloads import get_workload

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_VERSION_POS = len(MAGIC)
_FOOTER_OFFSET_POS = _VERSION_POS + _U32.size
_HEADER_LEN_POS = _FOOTER_OFFSET_POS + _U64.size
_HEADER_POS = _HEADER_LEN_POS + _U32.size
_FRAME_HEAD = struct.Struct("<IIQ")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The bytes of a small bfs recording and its frame offsets."""
    path = str(tmp_path_factory.mktemp("refusals") / "bfs.vetrace")
    ValueExpert(ToolConfig()).profile(
        get_workload("rodinia/bfs")(scale=0.1, seed=0), record_path=path
    )
    with open(path, "rb") as handle:
        blob = handle.read()
    with TraceReader(path) as reader:
        offsets = [offset for offset, _, _ in reader.frame_index()]
    return blob, offsets


def _footer_offset(blob):
    return _U64.unpack_from(blob, _FOOTER_OFFSET_POS)[0]


def _patched(blob, position, packer, value):
    out = bytearray(blob)
    packer.pack_into(out, position, value)
    return bytes(out)


def _bad_magic(blob):
    return b"X" + blob[1:]


def _unsupported_version(blob):
    return _patched(blob, _VERSION_POS, _U32, 99)


def _unclosed(blob):
    return _patched(blob, _FOOTER_OFFSET_POS, _U64, 0)


def _footer_offset_outside(blob):
    return _patched(blob, _FOOTER_OFFSET_POS, _U64, len(blob) + 100)


def _header_length_past_eof(blob):
    return _patched(blob, _HEADER_LEN_POS, _U32, 2**31)


def _footer_length_past_eof(blob):
    return _patched(blob, _footer_offset(blob), _U64, 2**40)


def _header_not_json(blob):
    return blob[:_HEADER_POS] + b"!" + blob[_HEADER_POS + 1 :]


def _footer_not_json(blob):
    at = _footer_offset(blob) + _U64.size
    return blob[:at] + b"!" + blob[at + 1 :]


def _short_read(blob):
    return blob[: _VERSION_POS + 2]


@pytest.mark.parametrize(
    "damage",
    [
        _bad_magic,
        _unsupported_version,
        _unclosed,
        _footer_offset_outside,
        _header_length_past_eof,
        _footer_length_past_eof,
        _header_not_json,
        _footer_not_json,
        _short_read,
    ],
)
def test_a_refused_trace_closes_its_file(recorded, tmp_path, monkeypatch, damage):
    blob, _ = recorded
    path = tmp_path / "damaged.vetrace"
    path.write_bytes(damage(blob))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        try:
            TraceReader(str(path))
        except TraceError:
            pass
        else:
            pytest.fail(f"{damage.__name__} was accepted")
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


def test_replay_refuses_an_h2d_frame_longer_than_its_host_array(
    recorded, tmp_path
):
    """The first H2D frame's ``nbytes`` raised by 7: the copy needs 7
    more host elements than the recorded host array holds."""
    blob, offsets = recorded
    for start, end in zip(offsets, offsets[1:]):
        kind, meta_len, payload_len = _FRAME_HEAD.unpack_from(blob, start)
        meta_start = start + _FRAME_HEAD.size
        meta = json.loads(blob[meta_start : meta_start + meta_len])
        if kind == EVENT_MEMCPY and meta["kind"] == "h2d":
            break
    else:
        pytest.fail("the recording has no H2D copy")
    meta["nbytes"] += 7
    encoded = json.dumps(meta).encode()
    frame = _FRAME_HEAD.pack(kind, len(encoded), payload_len) + encoded
    frame += blob[meta_start + meta_len : end]
    out = bytearray(blob[:start] + frame + blob[end:])
    _U64.pack_into(
        out,
        _FOOTER_OFFSET_POS,
        _footer_offset(blob) + len(frame) - (end - start),
    )
    path = tmp_path / "longer_copy.vetrace"
    path.write_bytes(bytes(out))
    with TraceReplayer(str(path)) as replayer:
        with pytest.raises(InvalidValueError, match="host elements"):
            replayer.replay()
