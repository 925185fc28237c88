"""``SnapshotStore.element_runs`` against the per-interval loop.

The store turns the byte intervals a launch wrote into element runs
``[lo, hi)``, one row per interval with ``lo <= hi``.  The oracle is
the per-interval loop: for each interval, the elements it overlaps,
clipped to the object, concatenated in interval order.  Expanding the
runs with ``run_points`` must give exactly the loop's indices on every
input: unaligned intervals that share an element (which appears once
per interval), intervals clipped at either end of the object or
entirely outside it, empty and reversed pairs, objects and ends near
2**64, and the one-interval and empty calls.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.snapshots import SnapshotStore
from repro.gpu.dtypes import DType
from repro.intervals.interval import run_points

_DTYPES = {1: DType.UINT8, 2: DType.INT16, 4: DType.FLOAT32, 8: DType.FLOAT64}


def _object(address, itemsize, nelems):
    """What ``element_runs`` reads of a data object."""
    return SimpleNamespace(
        address=address,
        dtype=_DTYPES[itemsize],
        handle=SimpleNamespace(nelems=nelems),
    )


def _loop(obj, intervals):
    """The per-interval loop: one ``np.arange`` per covered interval."""
    itemsize = obj.dtype.itemsize
    pieces = []
    for start, end in intervals:
        lo = max(0, (int(start) - obj.address) // itemsize)
        hi = min(obj.handle.nelems, -(-(int(end) - obj.address) // itemsize))
        if lo < hi:
            pieces.append(np.arange(lo, hi, dtype=np.int64))
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


def _check(obj, intervals):
    intervals = np.array(intervals, dtype=np.uint64).reshape(-1, 2)
    runs = SnapshotStore().element_runs(obj, intervals)
    assert runs.dtype == np.int64
    assert runs.shape == (intervals.shape[0], 2)
    lo, hi = runs[:, 0], runs[:, 1]
    assert (0 <= lo).all() and (lo <= hi).all() and (hi <= obj.handle.nelems).all()
    got = run_points(lo, hi - lo)
    assert np.array_equal(got, _loop(obj, intervals))
    return got.tolist()


@st.composite
def cases(draw):
    itemsize = draw(st.sampled_from(sorted(_DTYPES)))
    nelems = draw(st.integers(min_value=1, max_value=40))
    size = itemsize * nelems
    address = draw(
        st.sampled_from([0, 4096, 4098, 2**63, 2**64 - size, 2**64 - size - 3])
    )
    near = st.integers(-3 * itemsize, size + 3 * itemsize).map(
        lambda offset: min(max(address + offset, 0), 2**64 - 1)
    )
    point = st.one_of(near, near, near, st.sampled_from([0, 2**64 - 1]))
    pairs = draw(
        st.lists(
            st.tuples(point, point).map(sorted), min_size=0, max_size=12
        )
    )
    if draw(st.booleans()) and pairs:
        pairs.append(pairs[-1][::-1])  # a reversed pair covers nothing
    return _object(address, itemsize, nelems), pairs


@given(cases())
@settings(max_examples=500, deadline=None)
def test_matches_the_per_interval_loop(case):
    obj, pairs = case
    _check(obj, pairs)


def test_unaligned_intervals_share_an_element():
    obj = _object(4096, 4, 16)
    assert _check(obj, [[4098, 4102], [4101, 4105], [4104, 4105]]) == [
        0, 1, 1, 2, 2,
    ]


def test_intervals_clipped_at_either_end():
    obj = _object(4096, 4, 16)
    assert _check(obj, [[4088, 4100], [4096 + 60, 4096 + 200]]) == [0, 15]
    assert _check(obj, [[0, 4096], [4096 + 64, 2**64 - 1]]) == []


def test_ends_near_two_to_the_64():
    obj = _object(2**64 - 64, 8, 8)
    assert _check(obj, [[2**64 - 16, 2**64 - 1], [2**64 - 64, 2**64 - 56]]) == [
        6, 7, 0,
    ]


@pytest.mark.parametrize(
    "pair, want",
    [
        ([4096, 4104], [0, 1]),
        ([4099, 4100], [0]),
        ([4000, 4096], []),
        ([4096 + 64, 4096 + 80], []),
        ([4100, 4100], []),
        ([0, 2**64 - 1], list(range(16))),
    ],
)
def test_one_interval(pair, want):
    assert _check(_object(4096, 4, 16), [pair]) == want


def test_no_interval():
    assert _check(_object(4096, 4, 16), np.empty((0, 2), dtype=np.uint64)) == []
