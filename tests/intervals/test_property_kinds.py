"""Property tests for the kind-aware single-pass interval pipeline.

``merge_parallel_kinds``, which sorts each kind subset's starts and
ends apart and takes the combined coverage from the per-kind runs, must
be extensionally identical to running the Figure 4 merge three times —
full stream, LOAD-only subset, STORE-only subset — and to the
byte-level reference, for *any* tagged interval multiset.  These are
the invariants the collector's single-pass launch path rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.accesses import AccessKind, AccessRecord
from repro.intervals.compaction import warp_compact_kinds
from repro.intervals.interval import (
    KIND_LOAD,
    KIND_STORE,
    intervals_from_accesses_kinds,
    merge_reference,
)
from repro.intervals.parallel import merge_parallel, merge_parallel_kinds
from tests.intervals.test_warp_compact_vectorized import (
    cfd_like_stream,
    scattered_rows,
)

EMPTY = np.empty((0, 2), dtype=np.uint64)


def _merge_subset(arr, kinds, bit):
    subset = arr[(kinds & bit) != 0]
    return merge_parallel(subset) if subset.size else EMPTY


tagged_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=1, max_value=64),
        st.sampled_from([KIND_LOAD, KIND_STORE]),
    ),
    min_size=1,
    max_size=200,
).map(
    lambda triples: (
        np.array(
            [(start, start + length) for start, length, _ in triples],
            dtype=np.uint64,
        ),
        np.array([kind for _, _, kind in triples], dtype=np.uint8),
    )
)


@given(tagged_strategy)
@settings(max_examples=200, deadline=None)
def test_combined_equals_merge_parallel(tagged):
    arr, kinds = tagged
    assert np.array_equal(
        merge_parallel_kinds(arr, kinds).combined, merge_parallel(arr)
    )


@given(tagged_strategy)
@settings(max_examples=200, deadline=None)
def test_per_kind_equals_filtered_triple_merge(tagged):
    arr, kinds = tagged
    merged = merge_parallel_kinds(arr, kinds)
    assert np.array_equal(merged.reads, _merge_subset(arr, kinds, KIND_LOAD))
    assert np.array_equal(merged.writes, _merge_subset(arr, kinds, KIND_STORE))


@given(tagged_strategy)
@settings(max_examples=100, deadline=None)
def test_per_kind_equals_byte_reference(tagged):
    arr, kinds = tagged
    merged = merge_parallel_kinds(arr, kinds)
    for coverage, bit in ((merged.reads, KIND_LOAD), (merged.writes, KIND_STORE)):
        subset = arr[(kinds & bit) != 0]
        expected = [[iv.start, iv.end] for iv in merge_reference(subset)] if subset.size else []
        assert coverage.tolist() == expected


@given(tagged_strategy)
@settings(max_examples=200, deadline=None)
def test_kind_compaction_preserves_all_coverages(tagged):
    arr, kinds = tagged
    compacted, ckinds = warp_compact_kinds(arr, kinds)
    direct = merge_parallel_kinds(arr, kinds)
    via_compaction = merge_parallel_kinds(compacted, ckinds)
    assert np.array_equal(via_compaction.combined, direct.combined)
    assert np.array_equal(via_compaction.reads, direct.reads)
    assert np.array_equal(via_compaction.writes, direct.writes)


@given(tagged_strategy)
@settings(max_examples=100, deadline=None)
def test_kind_compaction_never_grows_input(tagged):
    arr, kinds = tagged
    compacted, ckinds = warp_compact_kinds(arr, kinds)
    assert compacted.shape[0] <= arr.shape[0]
    assert ckinds.shape[0] == compacted.shape[0]


@given(tagged_strategy, st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_kind_compaction_any_warp_size(tagged, warp_size):
    arr, kinds = tagged
    compacted, ckinds = warp_compact_kinds(arr, kinds, warp_size=warp_size)
    direct = merge_parallel_kinds(arr, kinds)
    via = merge_parallel_kinds(compacted, ckinds)
    assert np.array_equal(via.reads, direct.reads)
    assert np.array_equal(via.writes, direct.writes)


def _tagged_from_pieces(pieces, base):
    """Intervals with shared starts and intervals nested in others."""
    rows, kinds = [], []
    for start, length, inner, kind in pieces:
        rows.append((base + start, base + start + length))
        kinds.append(kind)
        if inner is not None and length > 1:
            lo = start + inner % length
            hi = lo + 1 + (inner // 7) % (start + length - lo)
            rows.append((base + lo, base + min(hi, start + length)))
            kinds.append(kind ^ (KIND_LOAD | KIND_STORE))
    return np.array(rows, dtype=np.uint64), np.array(kinds, dtype=np.uint8)


#: Starts drawn from a small pool (many duplicates), intervals nested
#: inside others (of either kind), optionally above 2**63 where a signed
#: sort or scan would go wrong.
overlap_strategy = st.builds(
    _tagged_from_pieces,
    st.lists(
        st.tuples(
            st.sampled_from([0, 8, 16, 24, 100, 101]),
            st.integers(min_value=1, max_value=40),
            st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
            st.sampled_from([KIND_LOAD, KIND_STORE]),
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([0, 2**63, 2**64 - 2**20]),
)


def _reference_runs(arr):
    return [[iv.start, iv.end] for iv in merge_reference(arr)] if arr.size else []


@given(overlap_strategy)
@settings(max_examples=200, deadline=None)
def test_duplicate_nested_and_high_starts_match_both_oracles(tagged):
    arr, kinds = tagged
    merged = merge_parallel_kinds(arr, kinds)
    assert np.array_equal(merged.combined, merge_parallel(arr))
    assert merged.combined.tolist() == _reference_runs(arr)
    for coverage, bit in ((merged.reads, KIND_LOAD), (merged.writes, KIND_STORE)):
        subset = arr[(kinds & bit) != 0]
        assert np.array_equal(coverage, _merge_subset(arr, kinds, bit))
        assert coverage.tolist() == _reference_runs(subset)
        assert coverage.dtype == np.uint64


def _assert_figure4_per_kind(merged, arr, kinds):
    assert np.array_equal(merged.combined, merge_parallel(arr))
    assert np.array_equal(merged.reads, _merge_subset(arr, kinds, KIND_LOAD))
    assert np.array_equal(merged.writes, _merge_subset(arr, kinds, KIND_STORE))


@given(scattered_rows, st.booleans())
@settings(max_examples=300, deadline=None)
def test_scattered_streams_match_figure4_per_kind(stream, by_start):
    """Unordered, nested, tied and touching intervals with flags 0-3,
    also above 2**63; sorted by start, a subset takes the no-sort path."""
    arr, kinds = stream
    if by_start:
        order = np.argsort(arr[:, 0], kind="stable")
        arr, kinds = arr[order], kinds[order]
    _assert_figure4_per_kind(merge_parallel_kinds(arr, kinds), arr, kinds)
    compacted = warp_compact_kinds(arr, kinds)
    _assert_figure4_per_kind(merge_parallel_kinds(*compacted), arr, kinds)


def test_cfd_like_gathers_match_figure4_per_kind():
    arr, kinds = cfd_like_stream()
    _assert_figure4_per_kind(merge_parallel_kinds(arr, kinds), arr, kinds)
    compacted = warp_compact_kinds(arr, kinds)
    _assert_figure4_per_kind(merge_parallel_kinds(*compacted), arr, kinds)


def test_untagged_intervals_count_toward_combined_only():
    """Flags without either bit bridge a gap in combined, not per kind."""
    arr = np.array([[0, 4], [4, 8], [8, 12], [20, 24]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD, 0, KIND_STORE, 0], dtype=np.uint8)
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[0, 12], [20, 24]]
    assert merged.reads.tolist() == [[0, 4]]
    assert merged.writes.tolist() == [[8, 12]]


def _record(kind, addresses, values):
    lanes = np.arange(len(addresses))
    return AccessRecord(
        pc=0,
        kind=kind,
        addresses=addresses,
        values=values,
        dtype=None,
        kernel_name="k",
        thread_ids=lanes,
        block_ids=lanes,
    )


def test_intervals_from_accesses_kinds_matches_per_record_intervals():
    records = [
        _record(
            AccessKind.LOAD,
            np.arange(40, dtype=np.uint64) * 4,
            np.zeros(40, np.float32),
        ),
        _record(AccessKind.STORE, np.empty(0, np.uint64), np.empty(0, np.int8)),
        _record(
            AccessKind.STORE,
            np.array([2**63 + 8, 16, 0], dtype=np.uint64),
            np.zeros(3, np.float64),
        ),
        _record(AccessKind.LOAD, np.array([5, 3], np.int64), np.zeros(2, np.int8)),
    ]
    raw, kinds = intervals_from_accesses_kinds(records)
    want = np.concatenate([r.intervals() for r in records if r.count])
    assert raw.dtype == np.uint64
    assert np.array_equal(raw, want)
    assert kinds.tolist() == [KIND_LOAD] * 40 + [KIND_STORE] * 3 + [KIND_LOAD] * 2
    empty_raw, empty_kinds = intervals_from_accesses_kinds(records[1:2])
    assert empty_raw.shape == (0, 2) and empty_kinds.shape == (0,)


# -- adversarial fixed cases --------------------------------------------------


def test_touching_intervals_of_different_kinds_do_not_bleed():
    """A LOAD touching a STORE merges in combined but never per kind."""
    arr = np.array([[0, 4], [4, 8]], dtype=np.uint64)
    kinds = np.array([KIND_LOAD, KIND_STORE], dtype=np.uint8)
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[0, 8]]
    assert merged.reads.tolist() == [[0, 4]]
    assert merged.writes.tolist() == [[4, 8]]


def test_cross_kind_shadowing_interval_does_not_bridge_gaps():
    """A long STORE spanning two disjoint LOADs must not join them."""
    arr = np.array([[0, 100], [10, 20], [30, 40]], dtype=np.uint64)
    kinds = np.array([KIND_STORE, KIND_LOAD, KIND_LOAD], dtype=np.uint8)
    compacted, ckinds = warp_compact_kinds(arr, kinds)
    merged = merge_parallel_kinds(compacted, ckinds)
    assert merged.reads.tolist() == [[10, 20], [30, 40]]
    assert merged.writes.tolist() == [[0, 100]]
    assert merged.combined.tolist() == [[0, 100]]


def test_exact_duplicate_intervals_across_kinds():
    arr = np.array([[8, 16]] * 6, dtype=np.uint64)
    kinds = np.array(
        [KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE, KIND_LOAD, KIND_STORE],
        dtype=np.uint8,
    )
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[8, 16]]
    assert merged.reads.tolist() == [[8, 16]]
    assert merged.writes.tolist() == [[8, 16]]


def test_high_uint64_addresses_survive_the_sweep():
    """Addresses above 2**63 must not overflow or lose precision."""
    base = np.uint64(2**63 + 7)
    arr = np.array(
        [[base, base + np.uint64(4)], [base + np.uint64(4), base + np.uint64(12)]],
        dtype=np.uint64,
    )
    kinds = np.array([KIND_LOAD, KIND_STORE], dtype=np.uint8)
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[int(base), int(base) + 12]]
    assert merged.reads.tolist() == [[int(base), int(base) + 4]]
    assert merged.writes.tolist() == [[int(base) + 4, int(base) + 12]]


def test_interleaved_read_write_runs():
    """Alternating LOAD/STORE element runs keep per-kind stripes."""
    starts = np.arange(0, 64, 4, dtype=np.uint64)
    arr = np.stack([starts, starts + np.uint64(4)], axis=1)
    kinds = np.where(np.arange(16) % 2 == 0, KIND_LOAD, KIND_STORE).astype(
        np.uint8
    )
    merged = merge_parallel_kinds(arr, kinds)
    assert merged.combined.tolist() == [[0, 64]]
    assert merged.reads.tolist() == [[8 * i, 8 * i + 4] for i in range(8)]
    assert merged.writes.tolist() == [[8 * i + 4, 8 * i + 8] for i in range(8)]


def test_mismatched_kind_vector_rejected():
    arr = np.array([[0, 4]], dtype=np.uint64)
    with pytest.raises(ValueError):
        merge_parallel_kinds(arr, np.array([1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        warp_compact_kinds(arr, np.array([], dtype=np.uint8))


def test_empty_stream_yields_empty_coverages():
    merged = merge_parallel_kinds(EMPTY, np.empty(0, dtype=np.uint8))
    assert merged.combined.shape == (0, 2)
    assert merged.reads.shape == (0, 2)
    assert merged.writes.shape == (0, 2)
