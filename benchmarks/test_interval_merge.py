"""Figure 4 — the parallel interval merge, as a microbenchmark.

The paper's argument is algorithmic: the data-parallel merge turns the
O(N log N) sequential sweep into parallel sort + scans, and warp
compaction shrinks the stream before the full merge ever runs.  The
benchmark measures the reproduction's merge throughput on a
streamcluster-like interval stream and asserts the structural facts.
"""

import numpy as np
import pytest
from conftest import emit

from repro.intervals.compaction import (
    compaction_ratio,
    warp_compact,
    warp_compact_kinds,
)
from repro.intervals.interval import KIND_LOAD, KIND_STORE
from repro.intervals.parallel import merge_parallel, merge_parallel_kinds
from repro.intervals.sequential import merge_sequential


def _streamcluster_like_intervals(count: int, seed: int = 0) -> np.ndarray:
    """Strided float accesses: many small intervals, partial adjacency."""
    rng = np.random.default_rng(seed)
    starts = (rng.integers(0, count // 2, count) * 4).astype(np.uint64)
    return np.stack([starts, starts + 4], axis=1)


INTERVALS = _streamcluster_like_intervals(500_000)


def test_parallel_merge_throughput(benchmark, artifact_dir):
    merged = benchmark(merge_parallel, INTERVALS)
    assert merged.shape[0] < INTERVALS.shape[0]
    emit(
        artifact_dir,
        "figure4_merge.txt",
        f"parallel merge: {INTERVALS.shape[0]} raw -> "
        f"{merged.shape[0]} merged intervals",
    )


def test_sequential_merge_throughput(benchmark):
    merged = benchmark(merge_sequential, INTERVALS)
    assert np.array_equal(merged, merge_parallel(INTERVALS))


def test_warp_compaction_throughput(benchmark):
    coalesced = np.stack(
        [
            np.arange(100_000, dtype=np.uint64) * 4,
            np.arange(100_000, dtype=np.uint64) * 4 + 4,
        ],
        axis=1,
    )
    compacted = benchmark(warp_compact, coalesced)
    # Fully coalesced warps collapse 32 accesses into 1 interval.
    assert compaction_ratio(coalesced.shape[0], compacted.shape[0]) == 32.0


def _bfs_like_intervals(count: int, seed: int = 1) -> np.ndarray:
    """Scattered 4-byte gathers over a wide range: rows arrive unordered."""
    rng = np.random.default_rng(seed)
    starts = (rng.integers(0, count * 8, count) * 4).astype(np.uint64)
    return np.stack([starts, starts + 4], axis=1)


@pytest.mark.parametrize(
    "stream",
    [INTERVALS, _bfs_like_intervals(200_000)],
    ids=["streamcluster_like", "bfs_like"],
)
def test_kinded_hot_path_matches_figure4_merge(benchmark, stream):
    """The collector's kernels agree with the Figure 4 oracle.

    Records of 32 loads and 16 stores: every other warp mixes kinds.
    """
    kinds = np.where(
        np.arange(stream.shape[0]) % 48 < 32, KIND_LOAD, KIND_STORE
    ).astype(np.uint8)

    def hot_path():
        return merge_parallel_kinds(*warp_compact_kinds(stream, kinds))

    merged = benchmark(hot_path)
    assert np.array_equal(merged.combined, merge_parallel(stream))
    assert np.array_equal(merged.reads, merge_parallel(stream[kinds == KIND_LOAD]))
    assert np.array_equal(
        merged.writes, merge_parallel(stream[kinds == KIND_STORE])
    )


def _cfd_like_stream(rows: int = 6250, seed: int = 2):
    """Scattered 4-byte gathers shaped like rodinia/cfd's: shuffled
    elements with repeats, in a record of loads then one of stores,
    each a whole number of warps (so no row mixes kinds)."""
    rng = np.random.default_rng(seed)
    count = rows * 32
    starts = rng.integers(0, count // 4, count).astype(np.uint64) * np.uint64(4)
    kinds = np.full(count, KIND_STORE, dtype=np.uint8)
    kinds[: rows * 3 // 4 * 32] = KIND_LOAD
    return np.stack([starts, starts + np.uint64(4)], axis=1), kinds


def test_cfd_like_gathers_match_both_oracles(benchmark):
    """The production shape: rows that barely compact, each sorted.

    Per kind, the compacted runs are :func:`warp_compact`'s on that
    kind's records, and each coverage is the Figure 4 merge's.
    """
    stream, kinds = _cfd_like_stream()

    def hot_path():
        compacted = warp_compact_kinds(stream, kinds)
        return compacted, merge_parallel_kinds(*compacted)

    (compacted, ckinds), merged = benchmark(hot_path)
    assert np.array_equal(merged.combined, merge_parallel(stream))
    for kind, coverage in ((KIND_LOAD, merged.reads), (KIND_STORE, merged.writes)):
        subset = stream[kinds == kind]
        assert np.array_equal(compacted[ckinds == kind], warp_compact(subset))
        assert np.array_equal(coverage, merge_parallel(subset))


def test_merge_after_compaction_is_cheaper(benchmark):
    """The two-stage pipeline: compaction shrinks the merge's input."""
    compacted = warp_compact(INTERVALS)

    def pipeline():
        return merge_parallel(compacted)

    merged = benchmark(pipeline)
    assert compacted.shape[0] < INTERVALS.shape[0]
    assert np.array_equal(merged, merge_parallel(INTERVALS))
