"""Differential tests for the vectorized kind-aware warp compaction.

``warp_compact_kinds`` was rewritten from a per-chunk Python loop to a
single padded 2-D layout whose rows' starts and ends are sorted each on
its own, plus a flattened run-reduction.  These tests pin the vectorized
implementation to an inline transliteration of the original scalar
algorithm — output order included — across randomized streams, rows
whose starts and ends are both out of order, a scattered-gather stream
shaped like rodinia/cfd's, and the edge shapes that the padding must
get right.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals.compaction import warp_compact_kinds
from repro.intervals.interval import KIND_LOAD, KIND_STORE

EMPTY = np.empty((0, 2), dtype=np.uint64)


def _scalar_reference(arr, kinds, warp_size):
    """The pre-vectorization algorithm: per chunk, per kind, run-merge."""
    out_intervals, out_kinds = [], []
    for base in range(0, len(arr), warp_size):
        chunk = arr[base : base + warp_size]
        chunk_kinds = kinds[base : base + warp_size]
        for flag in np.unique(chunk_kinds):
            subset = chunk[chunk_kinds == flag]
            subset = subset[np.argsort(subset[:, 0], kind="stable")]
            start, end = subset[0]
            for lo, hi in subset[1:]:
                if lo > end:
                    out_intervals.append((start, end))
                    out_kinds.append(flag)
                    start, end = lo, hi
                else:
                    end = max(end, hi)
            out_intervals.append((start, end))
            out_kinds.append(flag)
    return (
        np.array(out_intervals, dtype=np.uint64).reshape(-1, 2),
        np.array(out_kinds, dtype=np.uint8),
    )


stream_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=32),
        st.sampled_from([KIND_LOAD, KIND_STORE, KIND_LOAD | KIND_STORE]),
    ),
    min_size=1,
    max_size=150,
).map(
    lambda triples: (
        np.array(
            [(s, s + n) for s, n, _ in triples], dtype=np.uint64
        ).reshape(-1, 2),
        np.array([k for _, _, k in triples], dtype=np.uint8),
    )
)


@given(stream_strategy, st.sampled_from([1, 2, 4, 32, 33]))
@settings(max_examples=200, deadline=None)
def test_vectorized_matches_scalar_reference(stream, warp_size):
    arr, kinds = stream
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    want_arr, want_kinds = _scalar_reference(arr, kinds, warp_size)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


def _records_to_stream(records):
    """Concatenate per-record lane intervals, as the collector does."""
    starts, sizes, kinds = [], [], []
    for base, count, itemsize, stride, kind, shuffle_seed in records:
        lanes = base + itemsize * stride * np.arange(count, dtype=np.uint64)
        if shuffle_seed is not None:
            lanes = np.random.default_rng(shuffle_seed).permutation(lanes)
        starts.append(lanes)
        sizes.append(np.full(count, itemsize, dtype=np.uint64))
        kinds.append(np.full(count, kind, dtype=np.uint8))
    starts = np.concatenate(starts)
    return (
        np.stack([starts, starts + np.concatenate(sizes)], axis=1),
        np.concatenate(kinds),
    )


#: Streams shaped like a launch's: one run of lanes per record with
#: ascending starts (coalesced, or strided with gaps), item sizes of 1,
#: 4 and 8 bytes, record lengths that are whole warps or not (so rows
#: can mix kinds and the last row can be partial), and some records
#: whose lanes are shuffled (scattered accesses).
record_strategy = st.tuples(
    st.integers(min_value=0, max_value=4096),
    st.one_of(st.sampled_from([32, 64, 96]), st.integers(1, 80)),
    st.sampled_from([1, 4, 8]),
    st.sampled_from([1, 1, 2]),
    st.sampled_from([KIND_LOAD, KIND_STORE]),
    st.one_of(st.none(), st.none(), st.integers(0, 2**16)),
)
production_strategy = st.lists(record_strategy, min_size=1, max_size=8).map(
    _records_to_stream
)


@given(production_strategy, st.sampled_from([32, 32, 8, 5]))
@settings(max_examples=200, deadline=None)
def test_production_shaped_streams_match_scalar_reference(stream, warp_size):
    arr, kinds = stream
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    want_arr, want_kinds = _scalar_reference(arr, kinds, warp_size)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


def _stream_above(lanes, base, one_kind):
    """Lanes ``(start, length, kind)`` above ``base``, all of the first
    lane's kind when ``one_kind``."""
    arr = np.array(
        [(base + start, base + start + length) for start, length, _ in lanes],
        dtype=np.uint64,
    )
    flags = [lanes[0][2] if one_kind else kind for _, _, kind in lanes]
    return arr, np.array(flags, dtype=np.uint8)


#: Rows whose starts and ends are both out of order, the case sorting
#: them apart must get right: starts from a small pool (ties), lengths
#: from 1 to 40 (unequal, nested and touching intervals), the flags 0-3
#: in any order (rows mixing kinds out of order) or one kind throughout,
#: stream lengths that leave a partial last row, and bases at and above
#: 2**63.
scattered_rows = st.builds(
    _stream_above,
    st.lists(
        st.tuples(
            st.sampled_from([0, 4, 8, 9, 16, 17, 40, 100]),
            st.integers(min_value=1, max_value=40),
            st.sampled_from([0, KIND_LOAD, KIND_STORE, KIND_LOAD | KIND_STORE]),
        ),
        min_size=1,
        max_size=130,
    ),
    st.sampled_from([0, 2**63, 2**64 - 2**10]),
    st.booleans(),
)


@given(scattered_rows, st.sampled_from([32, 32, 8, 5, 1]))
@settings(max_examples=300, deadline=None)
def test_scattered_rows_match_scalar_reference(stream, warp_size):
    arr, kinds = stream
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    want_arr, want_kinds = _scalar_reference(arr, kinds, warp_size)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


def cfd_like_stream(count=200_000, seed=7):
    """Scattered 4-byte gathers shaped like rodinia/cfd's: shuffled
    elements with repeats, in ten records of alternating kinds whose
    lengths are not whole warps (so some rows mix kinds)."""
    rng = np.random.default_rng(seed)
    elements = rng.integers(0, count // 4, count).astype(np.uint64)
    starts = np.uint64(0x7F00_0000_0000) + elements * np.uint64(4)
    bounds = np.sort(rng.choice(np.arange(1, count), 9, replace=False))
    kinds = np.empty(count, dtype=np.uint8)
    for record, (lo, hi) in enumerate(zip([0, *bounds], [*bounds, count])):
        kinds[lo:hi] = KIND_LOAD if record % 2 == 0 else KIND_STORE
    return np.stack([starts, starts + np.uint64(4)], axis=1), kinds


def test_cfd_like_gathers_match_scalar_reference():
    arr, kinds = cfd_like_stream()
    got_arr, got_kinds = warp_compact_kinds(arr, kinds)
    want_arr, want_kinds = _scalar_reference(arr, kinds, 32)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)
    # Scattered rows barely compact, as in the real launch.
    assert got_arr.shape[0] > 0.9 * arr.shape[0]


def test_ordered_rows_are_left_in_place_and_unordered_rows_sorted():
    """A coalesced warp, a reversed warp and a row mixing kinds."""
    ascending = np.arange(32, dtype=np.uint64) * 4
    starts = np.concatenate([ascending, ascending[::-1] + 1000, ascending + 2000])
    arr = np.stack([starts, starts + 4], axis=1)
    kinds = np.full(96, KIND_LOAD, dtype=np.uint8)
    kinds[64:80] = KIND_STORE
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    # Per row, LOAD runs come before STORE runs (ascending kind flag).
    assert got_arr.tolist() == [
        [0, 128], [1000, 1128], [2064, 2128], [2000, 2064]
    ]
    assert got_kinds.tolist() == [KIND_LOAD, KIND_LOAD, KIND_LOAD, KIND_STORE]


def test_empty_stream():
    got_arr, got_kinds = warp_compact_kinds(
        EMPTY, np.empty(0, dtype=np.uint8)
    )
    assert got_arr.shape == (0, 2)
    assert got_kinds.size == 0


def test_single_interval():
    arr = np.array([[8, 16]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD], dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    assert np.array_equal(got_arr, arr)
    assert np.array_equal(got_kinds, kinds)


def test_partial_final_chunk_is_not_polluted_by_padding():
    """33 intervals with warp_size 32: one interval rides alone."""
    arr = np.array([[i * 10, i * 10 + 5] for i in range(33)], dtype=np.uint64)
    kinds = np.full(33, KIND_STORE, dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    want_arr, want_kinds = _scalar_reference(arr, kinds, 32)
    assert np.array_equal(got_arr, want_arr)
    assert np.array_equal(got_kinds, want_kinds)


def test_adjacent_same_kind_intervals_merge_within_chunk():
    arr = np.array([[0, 4], [4, 8], [8, 12]], dtype=np.uint64)
    kinds = np.full(3, KIND_LOAD, dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    assert np.array_equal(got_arr, np.array([[0, 12]], dtype=np.uint64))
    assert np.array_equal(got_kinds, np.array([KIND_LOAD], dtype=np.uint8))


def test_same_range_different_kinds_stay_separate():
    arr = np.array([[0, 8], [0, 8]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD, KIND_STORE], dtype=np.uint8)
    got_arr, got_kinds = warp_compact_kinds(arr, kinds, warp_size=32)
    assert got_arr.shape == (2, 2)
    assert set(got_kinds.tolist()) == {KIND_LOAD, KIND_STORE}
