"""Warp-level interval compaction (paper Section 6.1).

Before running the full Figure 4 merge, ValueExpert collapses the
intervals produced by the threads of each warp using warp primitives
(``shfl``/``bfe``/``bfind``/``brev``): the 32 element-sized intervals of
a coalesced warp access collapse into one or a few runs.  This is the
"interval compaction" step that runs inside the data-processing kernel
while the application kernel is paused.

The simulation groups per-thread intervals into warp-sized chunks and
merges runs *within each chunk only* — deliberately weaker than a full
merge, exactly like the hardware version, so the Figure 4 pass that
follows still has work to do.

:func:`warp_compact` is the scalar reference; the collector's
:func:`warp_compact_kinds` sorts each chunk's starts and ends apart, as
the merge in :mod:`repro.intervals.parallel` does.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.intervals.interval import as_interval_array

WARP_SIZE = 32


def warp_compact(intervals: Iterable, warp_size: int = WARP_SIZE) -> np.ndarray:
    """Merge touching/overlapping intervals within each warp-sized chunk.

    Interval order is preserved per the lane order within each warp; no
    merging happens across chunk boundaries.
    """
    arr = as_interval_array(intervals)
    n = arr.shape[0]
    if n == 0:
        return arr
    out = []
    for chunk_start in range(0, n, warp_size):
        chunk = arr[chunk_start : chunk_start + warp_size]
        # Within a warp, lanes access in arbitrary order; sort the lane
        # intervals (the hardware does this with bitonic exchange).
        chunk = chunk[np.argsort(chunk[:, 0], kind="stable")]
        run_start, run_end = chunk[0]
        for start, end in chunk[1:]:
            if start <= run_end:
                if end > run_end:
                    run_end = end
            else:
                out.append((run_start, run_end))
                run_start, run_end = start, end
        out.append((run_start, run_end))
    return np.array(out, dtype=np.uint64)


def warp_compact_kinds(
    intervals: Iterable,
    kinds: np.ndarray,
    warp_size: int = WARP_SIZE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Kind-preserving warp compaction for the single-pass pipeline.

    Like :func:`warp_compact`, but runs within warp chunks are only
    collapsed when their LOAD/STORE flags are equal, so the per-kind
    coverage downstream of the merge is exactly that of the raw stream.
    (Hardware compaction has the same property for free: it operates on
    the 32 lanes of one memory instruction, which share a kind.)

    Returns the compacted ``(m, 2)`` array (column-major, so its starts
    and ends are each contiguous) and its parallel flags.  The pass is
    vectorized across chunks, with no Python loop over the stream.
    Chunks are rows of a 2-D layout whose starts and ends are sorted
    each on its own (by kind first in rows that mix kinds): a run breaks
    after lane ``i`` exactly where ``starts[i + 1] > ends[i]``, and ends
    at ``ends[i]``.
    """
    arr = as_interval_array(intervals)
    kinds = np.asarray(kinds, dtype=np.uint8)
    n = arr.shape[0]
    if kinds.shape[0] != n:
        raise ValueError(
            f"kinds ({kinds.shape[0]}) must be parallel to intervals ({n})"
        )
    if n == 0:
        return arr, kinds

    # Lay the stream out as (nrows, warp_size) rows so every chunk is
    # processed at once.  A partial last row is padded with copies of
    # the final lane: a copy duplicates an interval of its own row and
    # kind, which changes no run, so the output is unchanged.
    nrows = -(-n // warp_size)
    size = nrows * warp_size
    s = np.empty(size, dtype=np.uint64)
    e = np.empty_like(s)
    k = np.empty(size, dtype=np.uint8)
    s[:n] = arr[:, 0]
    e[:n] = arr[:, 1]
    k[:n] = kinds
    s[n:], e[n:], k[n:] = arr[-1, 0], arr[-1, 1], kinds[-1]
    rows_s = s.reshape(nrows, warp_size)
    rows_e = e.reshape(nrows, warp_size)
    rows_k = k.reshape(nrows, warp_size)

    # Rows that mix kinds (a record whose length is not a multiple of
    # the warp size) are sorted by (kind, start) and by (kind, end),
    # from copies taken before every row is sorted in place.
    changes = np.flatnonzero(k[1:] != k[:-1])
    mixed = np.unique(changes[changes % warp_size != warp_size - 1] // warp_size)
    if mixed.size:
        by_kind = _sort_by_kind(rows_s[mixed], rows_e[mixed], rows_k[mixed])
    rows_s.sort(axis=1)
    rows_e.sort(axis=1)
    if mixed.size:
        rows_s[mixed], rows_e[mixed], rows_k[mixed] = by_kind

    # Lane i heads a run if it starts a row or a kind, or if its start
    # exceeds the end of lane i - 1; lane i ends a run if lane i + 1
    # heads one (the last lane always does).  Flattened row-major, head
    # order is exactly the scalar output order: per chunk, per
    # ascending kind, runs by start.
    breaks = np.empty(size + 1, dtype=bool)
    np.greater(s[1:], e[:-1], out=breaks[1:size])
    breaks[:size:warp_size] = True
    breaks[size] = True
    if mixed.size:
        breaks[1:size] |= k[1:] != k[:-1]
    heads, lasts = breaks[:-1], breaks[1:]
    return np.stack((s[heads], e[lasts])).T, k[heads]


#: Sorts after every start and ties with any end.
_LARGEST = np.uint64(2**64 - 1)


def _sort_by_kind(
    rows_s: np.ndarray, rows_e: np.ndarray, rows_k: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows sorted by (kind, start), by (kind, end) and by kind.

    One kind at a time: its lanes are sorted with every other lane set
    to the largest address, so they lead each row, and then move to the
    lanes where that kind sits in the row's sorted kinds.
    """
    sorted_k = np.sort(rows_k, axis=1)
    sorted_s = np.empty_like(rows_s)
    sorted_e = np.empty_like(rows_e)
    lanes = np.arange(rows_k.shape[1])
    for flag in np.unique(rows_k):
        of_kind = rows_k == flag
        leading = lanes < np.count_nonzero(of_kind, axis=1)[:, None]
        slots = sorted_k == flag
        for rows, out in ((rows_s, sorted_s), (rows_e, sorted_e)):
            alone = np.where(of_kind, rows, _LARGEST)
            alone.sort(axis=1)
            out[slots] = alone[leading]
    return sorted_s, sorted_e, sorted_k


def compaction_ratio(raw_count: int, compacted_count: int) -> float:
    """How much the warp pass shrank the interval stream (>= 1.0)."""
    if compacted_count <= 0:
        return 1.0
    return raw_count / compacted_count
