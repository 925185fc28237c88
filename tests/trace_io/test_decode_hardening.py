"""Damaged frames of a recorded trace fail only as a ``TraceError``.

Each case rewrites one frame of a small recorded bfs trace: a meta block
that is not JSON, not UTF-8, not a JSON object or nested deeper than the
JSON parser's recursion limit, a payload length
inflated far past the file, a zlib payload that inflates past its
recorded raw length, a codec without a usable raw length (missing,
infinite, too large to bound the inflater), and an array descriptor
whose offset or byte count is infinite.  A strict reader must raise
:class:`TraceError` carrying the offset of the damaged frame (never a
raw json/zlib exception or a ``MemoryError``), and a resilient replay
must return the prefix profile with the damage in its health report.

The ill-typed cases keep the frame readable but give one of its
frame-level values (a launch's ``time_s``, a memcpy's ``kind``, a
malloc's ``alloc.size``, ...) or record metas (a launch's
``records[0].kind``, ...) a type or range replay cannot use, or an
allocation size no host can back (2**50 bytes).  The
reader returns such a frame; replay must refuse it, naming the event
and the key, before any listener sees it.
"""

import gc
import json
import struct
import tracemalloc
import warnings
import zlib

import pytest

from repro import ToolConfig, ValueExpert
from repro.cli import main
from repro.errors import DegradedProfileWarning, TraceError
from repro.gpu.runtime import RuntimeListener
from repro.obs import MetricsRegistry, SpanTracer
from repro.trace_io import TraceReplayer
from repro.trace_io.format import (
    EVENT_LAUNCH,
    EVENT_MALLOC,
    EVENT_MEMCPY,
    EVENT_MEMSET,
    EVENT_NAMES,
    MAGIC,
    TraceReader,
)
from repro.tracediff import extract_summary
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


def _rewrite(recorded, tmp_path, edit, target=None):
    """Write the recording with its coded frame (or frame ``target``)
    replaced by ``edit``.

    ``edit(meta, payload)`` returns ``(meta, payload, payload_len)``;
    the footer offset is moved by however much the frame grew.
    """
    blob, offsets, coded = recorded
    target = coded if target is None else target
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


def _meta_not_an_object(meta, payload):
    return b"[1, 2, 3]", payload, len(payload)


def _deep_nesting(meta, payload):
    return b"[" * 200_000 + b"]" * 200_000, payload, len(payload)


def _infinite_n(meta, payload):
    return _recode(meta, payload, {"c": "zlib", "n": float("inf")})


def _huge_n(meta, payload):
    return _recode(meta, payload, {"c": "zlib", "n": 10**400})


def _descriptor(field, value):
    """An edit setting ``field`` of the frame's first array descriptor."""

    def edit(meta, payload):
        decoded = json.loads(meta)
        first = next(iter(decoded["__arrays__"].values()))
        first[field] = value
        return json.dumps(decoded).encode(), payload, len(payload)

    edit.__name__ = f"_{field}_{value}"
    return edit


#: Well-formed JSON carrying values the reader cannot use.
MALFORMED = [
    _meta_not_an_object,
    _deep_nesting,
    _infinite_n,
    _huge_n,
    _descriptor("offset", float("inf")),
    _descriptor("nbytes", float("-inf")),
]


def _meta_edit(kind, key, value):
    """An edit setting ``key`` (``alloc.size``: a key of the allocation
    descriptor; ``records[0].pc``: a key of the first record meta) in
    the meta of the first frame of ``kind``."""

    def edit(meta, payload):
        decoded = json.loads(meta)
        *parents, leaf = key.split(".")
        target = decoded
        for parent in parents:
            name, _, index = parent.partition("[")
            target = target[name]
            if index:
                target = target[int(index.rstrip("]"))]
        target[leaf] = value
        return json.dumps(decoded).encode(), payload, len(payload)

    edit.__name__ = f"_{EVENT_NAMES[kind]}-{key}-{json.dumps(value)}"
    edit.target = kind, key
    return edit


#: Readable frames whose frame-level values replay cannot use.
ILL_TYPED = [
    _meta_edit(EVENT_LAUNCH, "time_s", "x"),
    _meta_edit(EVENT_LAUNCH, "stats", [1]),
    _meta_edit(EVENT_LAUNCH, "annotation", 5),
    _meta_edit(EVENT_LAUNCH, "call_path", 5),
    _meta_edit(EVENT_LAUNCH, "shared_ranges", [[1]]),
    _meta_edit(EVENT_LAUNCH, "grid", "x"),
    _meta_edit(EVENT_LAUNCH, "seq", "x"),
    _meta_edit(EVENT_LAUNCH, "stream", "x"),
    _meta_edit(EVENT_MEMCPY, "kind", 99),
    _meta_edit(EVENT_MEMCPY, "nbytes", "x"),
    _meta_edit(EVENT_MALLOC, "alloc.size", -5),
    _meta_edit(EVENT_MALLOC, "alloc.size", 2**50),
    _meta_edit(EVENT_MALLOC, "alloc.device", "x"),
    _meta_edit(EVENT_MALLOC, "alloc.address", "x"),
    _meta_edit(EVENT_MEMSET, "byte_value", "x"),
    _meta_edit(EVENT_LAUNCH, "records[0].pc", "x"),
    _meta_edit(EVENT_LAUNCH, "records[0].kind", 99),
    _meta_edit(EVENT_LAUNCH, "records[0].dtype", "x"),
    _meta_edit(EVENT_LAUNCH, "records[0].kernel_name", 5),
]


DAMAGE = [
    _bad_json, _bad_utf8, _inflated_length, _inflates_past_n, _missing_n
] + MALFORMED


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


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("edit", DAMAGE, ids=lambda edit: edit.__name__[1:])
def test_strict_replay_raises_trace_error(recorded, tmp_path, edit, shards):
    path, _ = _rewrite(recorded, tmp_path, edit)
    with pytest.raises(TraceError):
        ValueExpert(ToolConfig()).profile_from_trace(path, shards=shards)


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


@pytest.mark.parametrize("shards", [1, 2])
def test_aborted_resilient_replay_closes_its_spans(recorded, tmp_path, shards):
    """A replay aborted by a damaged frame still closes ``trace.replay``,
    so the enclosing ``tool.replay`` span closes in order."""
    path, _ = _rewrite(recorded, tmp_path, _bad_json)
    tracer = SpanTracer()
    tool = ValueExpert(
        ToolConfig(resilient=True, observability=True),
        registry=MetricsRegistry(),
        tracer=tracer,
    )
    with pytest.warns(DegradedProfileWarning):
        profile = tool.profile_from_trace(path, shards=shards)
    assert profile.health.workload_aborted
    assert tracer.by_name("trace.replay")
    assert tracer.open_spans == 0


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


@pytest.mark.parametrize("edit", MALFORMED, ids=lambda edit: edit.__name__[1:])
def test_decoded_frame_index_survives_malformed_metas(recorded, tmp_path, edit):
    """The decoded index is a planning hint: a meta it cannot read weighs
    its frame at the on-disk size instead of raising."""
    path, damaged_offset = _rewrite(recorded, tmp_path, edit)
    with TraceReader(path) as reader:
        on_disk = reader.frame_index()
        decoded = reader.frame_index(decoded=True)
    assert [entry[:2] for entry in decoded] == [entry[:2] for entry in on_disk]
    if edit in (_meta_not_an_object, _deep_nesting, _infinite_n, _huge_n):
        damaged = [entry[0] for entry in on_disk].index(damaged_offset)
        assert decoded[damaged] == on_disk[damaged]


def _footer_kernels(recorded, tmp_path, kernels):
    """The recording with its footer kernel table replaced by ``kernels``."""
    blob = recorded[0]
    (footer,) = _FOOTER_OFFSET.unpack_from(blob, _FOOTER_OFFSET_POS)
    (length,) = _FOOTER_OFFSET.unpack_from(blob, footer)
    start = footer + _FOOTER_OFFSET.size
    table = json.loads(blob[start : start + length])
    table["kernels"] = kernels
    body = json.dumps(table).encode()
    path = tmp_path / "kernels.vetrace"
    path.write_bytes(blob[:footer] + _FOOTER_OFFSET.pack(len(body)) + body)
    return str(path)


BAD_KERNEL_TABLES = {
    "empty_entry": [{}],
    "not_a_list": 5,
    "short_line_map_entry": [
        {"name": "k", "code_base": 0, "line_map": [[16, "k.py"]], "binary": None}
    ],
}


@pytest.mark.parametrize("table", sorted(BAD_KERNEL_TABLES))
def test_malformed_kernel_table_is_a_trace_error(recorded, tmp_path, table):
    path = _footer_kernels(recorded, tmp_path, BAD_KERNEL_TABLES[table])
    with pytest.raises(TraceError):
        TraceReplayer(path)
    with pytest.raises(TraceError):
        extract_summary(path)


def test_refused_kernel_table_closes_the_trace(recorded, tmp_path):
    path = _footer_kernels(recorded, tmp_path, BAD_KERNEL_TABLES["not_a_list"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(TraceError):
            TraceReplayer(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _cli_cases():
    frames = [(edit.__name__[1:], edit, None) for edit in MALFORMED]
    tables = [(name, None, name) for name in sorted(BAD_KERNEL_TABLES)]
    return [
        pytest.param(edit, table, shards, id=f"{name}-shards{shards}")
        for name, edit, table in frames + tables
        for shards in (1, 2)
    ]


@pytest.mark.parametrize("edit, table, shards", _cli_cases())
def test_cli_replay_reports_malformed_input(
    recorded, tmp_path, capsys, edit, table, shards
):
    if edit is not None:
        path, _ = _rewrite(recorded, tmp_path, edit)
    else:
        path = _footer_kernels(recorded, tmp_path, BAD_KERNEL_TABLES[table])
    assert main(["replay", path, "--shards", str(shards)]) == 1
    assert capsys.readouterr().err.startswith("repro: error:")


# -- ill-typed frame metas --------------------------------------------------------


def _ill_typed(recorded, tmp_path, edit):
    """The recording with ``edit`` applied to the first frame of its kind;
    returns the path, the frame's index and the edited key."""
    kind, key = edit.target
    blob, offsets, _ = recorded
    # Not the last frame: the rewrite splices up to the next one.
    target = [_split(blob, offset)[0] for offset in offsets[:-1]].index(kind)
    path, _ = _rewrite(recorded, tmp_path, edit, target)
    return path, target, key


def _ids(edit):
    return edit.__name__[1:]


@pytest.mark.parametrize("edit", ILL_TYPED, ids=_ids)
def test_ill_typed_meta_is_read_but_refused_by_replay(recorded, tmp_path, edit):
    path, target, key = _ill_typed(recorded, tmp_path, edit)
    with TraceReader(path) as reader:
        assert len(list(reader.events())) == len(recorded[1])
    with pytest.raises(TraceError) as err:
        ValueExpert(ToolConfig()).profile_from_trace(path)
    assert f"event {target} " in str(err.value)
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("edit", ILL_TYPED, ids=_ids)
def test_no_listener_sees_an_ill_typed_frame(recorded, tmp_path, edit):
    path, target, _ = _ill_typed(recorded, tmp_path, edit)
    seen = []

    class Count(RuntimeListener):
        def on_api_end(self, event):
            seen.append(event)

    with TraceReplayer(path) as replayer:
        replayer.subscribe(Count())
        with pytest.raises(TraceError):
            replayer.replay()
    assert len(seen) == target


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("edit", ILL_TYPED, ids=_ids)
def test_resilient_replay_reports_ill_typed_meta(recorded, tmp_path, edit, shards):
    path, target, key = _ill_typed(recorded, tmp_path, edit)
    with pytest.warns(DegradedProfileWarning):
        profile = ValueExpert(ToolConfig(resilient=True)).profile_from_trace(
            path, shards=shards
        )
    assert profile.health.workload_aborted
    assert profile.health.abort_reason.startswith("TraceError")
    assert repr(key) in profile.health.abort_reason


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("edit", ILL_TYPED, ids=_ids)
def test_cli_replay_reports_ill_typed_meta(recorded, tmp_path, capsys, edit, shards):
    path, _, key = _ill_typed(recorded, tmp_path, edit)
    assert main(["replay", path, "--shards", str(shards)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert repr(key) in err
