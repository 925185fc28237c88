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
    Chunks are rows of a 2-D layout; only the rows not already in
    (kind, start) order are sorted, and one row running maximum of the
    ends finds the runs, redone per kind only in rows that mix kinds.
    Real streams are mostly ordered single-kind rows (one coalesced
    instruction per warp), so both extra steps are rare.
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
    # the final lane: a copy sorts next to its original, never starts
    # a run and never raises a run's end, so the output is unchanged.
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

    # Find the rows out of (kind, start) order and the rows that mix
    # kinds from the lane pairs (i, i + 1) of one row where the start
    # descends or the kind changes.
    kind_change = k[1:] != k[:-1]
    suspect = kind_change | (s[1:] < s[:-1])
    suspect[warp_size - 1 :: warp_size] = False
    pairs = np.flatnonzero(suspect)
    changes = kind_change[pairs]
    descending = (k[pairs + 1] < k[pairs]) | (
        ~changes & (s[pairs + 1] < s[pairs])
    )
    unordered = _rows_of(pairs[descending] // warp_size, nrows)
    mixed = _rows_of(pairs[changes] // warp_size, nrows)

    # Sort the unordered rows into (kind, start) order, matching the
    # scalar path's start-sorted, per-ascending-kind sub-streams.  The
    # order among equal (kind, start) lanes cannot change a run, and
    # while no row mixes kinds, start order is that order.
    if unordered.size:
        rs, re = rows_s[unordered], rows_e[unordered]
        if mixed.size:
            rk = rows_k[unordered]
            order = np.lexsort((rs, rk), axis=1)
            rows_k[unordered] = np.take_along_axis(rk, order, axis=1)
        else:
            order = np.argsort(rs, axis=1)
        rows_s[unordered] = np.take_along_axis(rs, order, axis=1)
        rows_e[unordered] = np.take_along_axis(re, order, axis=1)

    # A run ends where the next start exceeds the running maximum end
    # of its (row, kind) segment.  One row running maximum serves every
    # single-kind row.  Rows that mix kinds redo it masked to one kind
    # at a time (each kind's lanes are contiguous after the sort, and
    # lanes of other kinds contribute 0), and also break at each kind
    # change.
    reach = np.maximum.accumulate(rows_e, axis=1)
    breaks = np.empty(size, dtype=bool)
    breaks[1:] = s[1:] > reach.ravel()[:-1]
    rows_breaks = breaks.reshape(nrows, warp_size)
    rows_breaks[:, 0] = True
    if mixed.size:
        me, mk = rows_e[mixed], rows_k[mixed]
        mixed_reach = np.zeros_like(me)
        for flag in np.unique(mk):
            mask = mk == flag
            kind_reach = np.maximum.accumulate(np.where(mask, me, 0), axis=1)
            mixed_reach[mask] = kind_reach[mask]
        reach[mixed] = mixed_reach
        rows_breaks[mixed, 1:] = (mk[:, 1:] != mk[:, :-1]) | (
            rows_s[mixed, 1:] > mixed_reach[:, :-1]
        )

    # Flattened row-major, head order is exactly the scalar output
    # order: per chunk, per ascending kind, runs by start.  Each row's
    # first lane is a head, so a run's last lane (the lane before the
    # next head) is in its own row, and ``reach`` there is its end.
    heads = np.flatnonzero(breaks)
    last = np.empty_like(heads)
    last[:-1] = heads[1:] - 1
    last[-1] = size - 1
    out = np.empty((2, heads.size), dtype=np.uint64)
    np.take(s, heads, out=out[0])
    np.take(reach.ravel(), last, out=out[1])
    return out.T, k[heads]


def _rows_of(lane_rows: np.ndarray, nrows: int) -> np.ndarray:
    """The distinct row indices in ``lane_rows``, ascending."""
    present = np.zeros(nrows, dtype=bool)
    present[lane_rows] = True
    return np.flatnonzero(present)


def compaction_ratio(raw_count: int, compacted_count: int) -> float:
    """How much the warp pass shrank the interval stream (>= 1.0)."""
    if compacted_count <= 0:
        return 1.0
    return raw_count / compacted_count
