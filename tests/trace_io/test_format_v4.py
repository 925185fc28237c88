"""Format v4: access-record columns a launch implies are not stored.

A v4 launch frame always stores each record's values; its thread ids,
block ids and address run are replaced by a marker in the record meta
when the launch implies them exactly.  These tests round-trip records
of every shape through :func:`encode_event` and
:func:`decode_access_record` (ramps and scattered ids, block ids that
do and do not follow the thread ids, address runs that ascend, descend
and wrap, runs with one address off the line, torn records), check
that a v3 encoding still carries all four columns, and that a
malformed marker is a :class:`TraceError`, never a numpy warning or
exception.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.gpu.accesses import AccessKind, AccessRecord
from repro.gpu.dtypes import DType
from repro.gpu.runtime import KernelLaunchEvent
from repro.trace_io.codec import (
    decode_access_record,
    encode_event,
    stub_kernel,
)

_U64 = 1 << 64
_COLUMNS = ("addr", "val", "tid", "blk")


def _launch(records, block):
    return KernelLaunchEvent(
        seq=0,
        call_path=None,
        kernel=stub_kernel("k"),
        grid=4,
        block=block,
        records=records,
        instrumented=True,
    )


def _run(first, step, n):
    """``first + step * i`` modulo 2**64 for i < n, in Python ints."""
    return np.array([(first + step * i) % _U64 for i in range(n)], dtype=np.uint64)


def _is_run(addresses):
    values = [int(a) for a in addresses]
    steps = {(b - a) % _U64 for a, b in zip(values, values[1:])}
    return len(steps) <= 1


@st.composite
def _records(draw):
    """One access record and its launch block size."""
    n = draw(st.integers(min_value=0, max_value=24))
    block = draw(st.integers(min_value=1, max_value=8))
    shape = draw(st.sampled_from(["ramp", "scattered", "short", "long"]))
    if shape == "ramp" or (shape == "short" and n == 0):
        tids = np.arange(n, dtype=np.int64)
    elif shape == "scattered":
        tids = np.array(
            draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    elif shape == "short":  # torn: the id columns lost their tail
        tids = np.arange(draw(st.integers(0, n - 1)), dtype=np.int64)
    else:  # torn by the fault injector: addresses cut, ids left whole
        tids = np.arange(n + draw(st.integers(1, 4)), dtype=np.int64)
    blocks = tids // block
    if draw(st.booleans()):
        blocks = blocks + draw(st.integers(1, 3))
    layout = draw(st.sampled_from(["up", "down", "wrap", "kinked", "scattered"]))
    if layout == "scattered":
        addresses = np.array(
            draw(st.lists(st.integers(0, _U64 - 1), min_size=n, max_size=n)),
            dtype=np.uint64,
        )
    else:
        step = draw(st.integers(0, 1 << 20))
        first = draw(st.integers(0, _U64 - 1))
        if layout == "down":
            step = (-step) % _U64
        elif layout == "wrap":
            first = _U64 - draw(st.integers(1, 64))
            step = max(step, 1)
        addresses = _run(first, step, n)
        if layout == "kinked" and n >= 3:
            # Ends of a run, but one interior address is off the line.
            kink = draw(st.integers(1, n - 2))
            off = draw(st.integers(1, 1 << 10))
            addresses[kink] = (int(addresses[kink]) + off) % _U64
    dtype = draw(st.sampled_from([np.float32, np.int64, np.uint8]))
    record = AccessRecord(
        pc=draw(st.integers(0, 1 << 20)),
        kind=draw(st.sampled_from(list(AccessKind))),
        addresses=addresses,
        values=np.arange(n).astype(dtype),
        dtype=draw(st.sampled_from([None, DType.FLOAT32, DType.INT64])),
        kernel_name="k",
        thread_ids=tids,
        block_ids=blocks,
    )
    return record, block


def _assert_same_record(got, expected):
    assert (got.pc, got.kind, got.dtype, got.kernel_name) == (
        expected.pc, expected.kind, expected.dtype, expected.kernel_name,
    )
    for name, dtype in (
        ("addresses", np.uint64),
        ("values", expected.values.dtype),
        ("thread_ids", np.int64),
        ("block_ids", np.int64),
    ):
        column = getattr(got, name)
        assert column.dtype == dtype, name
        np.testing.assert_array_equal(column, getattr(expected, name))


@settings(max_examples=300, deadline=None)
@given(st.lists(_records(), min_size=1, max_size=4))
def test_v4_records_round_trip_exactly(drawn):
    block = drawn[0][1]
    records = [record for record, _ in drawn]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, meta, arrays = encode_event(_launch(records, block), version=4)
        for index, record in enumerate(records):
            record_meta = meta["records"][index]
            implied = {
                "addr": _is_run(record.addresses),
                "tid": np.array_equal(record.thread_ids, np.arange(record.count)),
                "blk": np.array_equal(record.block_ids, record.thread_ids // block),
                "val": False,
            }
            for column in _COLUMNS:
                assert (f"r{index}.{column}" in arrays) != implied[column], column
                assert (column in record_meta) == implied[column], column
            _assert_same_record(
                decode_access_record(record_meta, arrays, index, meta["block"]),
                record,
            )


@settings(max_examples=100, deadline=None)
@given(st.lists(_records(), min_size=1, max_size=4))
def test_v3_records_keep_all_four_columns(drawn):
    block = drawn[0][1]
    records = [record for record, _ in drawn]
    _, meta, arrays = encode_event(_launch(records, block), version=3)
    assert list(arrays) == [
        f"r{index}.{column}" for index in range(len(records)) for column in _COLUMNS
    ]
    for index, record in enumerate(records):
        record_meta = meta["records"][index]
        assert set(record_meta) == {"pc", "kind", "dtype", "kernel_name"}
        _assert_same_record(
            decode_access_record(record_meta, arrays, index), record
        )


def test_v4_frame_of_a_ramp_stores_only_values():
    n = 64
    record = AccessRecord(
        pc=16,
        kind=AccessKind.LOAD,
        addresses=_run(0x7F0000001000, 4, n),
        values=np.ones(n, dtype=np.float32),
        dtype=DType.FLOAT32,
        kernel_name="k",
        thread_ids=np.arange(n, dtype=np.int64),
        block_ids=np.arange(n, dtype=np.int64) // 32,
    )
    _, meta, arrays = encode_event(_launch([record], 32), version=4)
    assert list(arrays) == ["r0.val"]
    assert meta["records"][0]["addr"] == [0x7F0000001000, 4]
    assert meta["records"][0]["tid"] == "arange"
    assert meta["records"][0]["blk"] == "tid//block"


# -- malformed v4 keys ---------------------------------------------------------


def _implied_frame():
    """A v4 record with all three columns implied, and its arrays."""
    n = 8
    record = AccessRecord(
        pc=0,
        kind=AccessKind.STORE,
        addresses=_run(4096, 8, n),
        values=np.zeros(n, dtype=np.int64),
        dtype=DType.INT64,
        kernel_name="k",
        thread_ids=np.arange(n, dtype=np.int64),
        block_ids=np.arange(n, dtype=np.int64) // 4,
    )
    _, meta, arrays = encode_event(_launch([record], 4), version=4)
    assert list(arrays) == ["r0.val"]
    return meta["records"][0], arrays


MALFORMED = [
    ("addr", [4096]),
    ("addr", [4096, 8, 1]),
    ("addr", [-1, 8]),
    ("addr", [4096, _U64]),
    ("addr", [4096.0, 8]),
    ("addr", [True, 8]),
    ("addr", "4096,8"),
    ("addr", None),
    ("tid", "ramp"),
    ("tid", 0),
    ("tid", None),
    ("blk", "tid/block"),
    ("blk", 1),
]


@pytest.mark.parametrize(
    "key, value", MALFORMED, ids=[f"{k}={v!r}" for k, v in MALFORMED]
)
def test_malformed_marker_is_a_trace_error(key, value):
    record_meta, arrays = _implied_frame()
    record_meta[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError, match="record 0"):
            decode_access_record(record_meta, arrays, 0, 4)


@pytest.mark.parametrize("block", [0, -4, "4", None, True, 4.0, 1 << 63])
def test_implied_block_ids_need_a_positive_int_block(block):
    record_meta, arrays = _implied_frame()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError, match="positive int"):
            decode_access_record(record_meta, arrays, 0, block)


def test_implied_columns_need_one_dimensional_values():
    record_meta, arrays = _implied_frame()
    arrays["r0.val"] = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(TraceError, match="one-dimensional"):
        decode_access_record(record_meta, arrays, 0, 4)


def test_implied_block_ids_need_int64_thread_ids():
    record_meta, arrays = _implied_frame()
    del record_meta["tid"]
    arrays["r0.tid"] = np.array([0.5, np.nan, np.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError, match="int64 thread ids"):
            decode_access_record(record_meta, arrays, 0, 4)
