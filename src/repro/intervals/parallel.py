"""The Figure 4 data-parallel interval merge.

This is the paper's key acceleration (Section 6.1).  The algorithm is
implemented step-for-step as published, using numpy's vectorized
primitives as the stand-in for GPU-wide parallel sort / prefix scan:

1. Lexicographically sort all interval endpoints by ``(address,
   is_end)`` so that, at equal addresses, a *start* sorts before an
   *end* (this is what makes touching intervals merge).
2. Initialize a ``markers`` array: +1 at interval starts, -1 at ends.
3. Inclusive parallel prefix scan over ``markers``.  A merged interval
   *starts* where the scanned value is 1 at a start marker, and *ends*
   where the scanned value is 0 (necessarily an end marker).
4. Build a ``start_flags`` array that is 1 exactly at merged starts.
5. Exclusive prefix scan of ``start_flags`` yields each merged start's
   output index.
6./7. Same for merged ends.
8./9. Scatter starts and ends into the output buffer.

Every step is a data-parallel primitive (sort, map, scan, scatter), so
the GPU implementation in the paper runs in O(log N) depth with radix
sort; the numpy version preserves the structure and the results.

:func:`merge_parallel` is kept step-for-step as the reference.  The
collector's hot path, :func:`merge_parallel_kinds`, reaches the same
coverages from one sort of the interval starts and running maxima over
the ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.intervals.interval import KIND_LOAD, KIND_STORE, as_interval_array


def merge_parallel(intervals: Iterable) -> np.ndarray:
    """Merge intervals with the Figure 4 algorithm.

    Returns a disjoint, sorted ``(m, 2)`` uint64 array, bit-identical to
    :func:`repro.intervals.sequential.merge_sequential` output.
    """
    arr = as_interval_array(intervals)
    n = arr.shape[0]
    if n == 0:
        return arr

    # Step 1 — endpoint list and lexicographic sort by (address, is_end).
    addresses = np.concatenate([arr[:, 0], arr[:, 1]])
    is_end = np.concatenate(
        [np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8)]
    )
    order = np.lexsort((is_end, addresses))
    addresses = addresses[order]
    is_end = is_end[order]

    # Step 2 — markers: +1 for starts, -1 for ends.
    markers = np.where(is_end == 0, 1, -1).astype(np.int64)

    # Step 3 — inclusive prefix scan.
    scanned = np.cumsum(markers)

    # Step 4 — merged starts: scanned value 1 at a start marker.
    start_flags = ((scanned == 1) & (is_end == 0)).astype(np.int64)

    # Step 5 — output indices of merged starts (exclusive scan).
    start_indices = np.cumsum(start_flags) - start_flags

    # Step 6 — merged ends: scanned value 0 (only ends can reach 0).
    end_flags = (scanned == 0).astype(np.int64)

    # Step 7 — output indices of merged ends (exclusive scan).
    end_indices = np.cumsum(end_flags) - end_flags

    # Steps 8/9 — scatter into the output buffer.
    m = int(start_flags.sum())
    out = np.empty((m, 2), dtype=np.uint64)
    start_mask = start_flags.astype(bool)
    end_mask = end_flags.astype(bool)
    out[start_indices[start_mask], 0] = addresses[start_mask]
    out[end_indices[end_mask], 1] = addresses[end_mask]
    return out


@dataclass(frozen=True)
class KindedMerge:
    """The three merged coverages derived from one start sort."""

    combined: np.ndarray
    reads: np.ndarray
    writes: np.ndarray


def _empty_intervals() -> np.ndarray:
    return np.empty((0, 2), dtype=np.uint64)


def _coverage_runs(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Maximal covered runs of intervals already sorted by start.

    A run breaks where a start exceeds the running maximum of every
    earlier end; touching intervals (start == that maximum) merge.  The
    run's end is the running maximum at its last interval.
    """
    if starts.size == 0:
        return _empty_intervals()
    reach = np.maximum.accumulate(ends)
    heads = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    out = np.empty((heads.size + 1, 2), dtype=np.uint64)
    out[0, 0] = starts[0]
    out[1:, 0] = starts[heads]
    out[:-1, 1] = reach[heads - 1]
    out[-1, 1] = reach[-1]
    return out


def merge_parallel_kinds(intervals: Iterable, kinds: np.ndarray) -> KindedMerge:
    """Kind-aware merge (the collector's hot path): one start sort,
    three running-max sweeps.

    The interval starts are sorted once (not at all when they already
    ascend, as after compacting a sequential sweep).  The combined,
    read and write coverages each come from one running maximum over
    the ends, taken on the start-sorted stream or on its LOAD / STORE
    subset (a boolean subset keeps the sort order).  Ties between equal
    starts cannot change a coverage, so any sort kind works.  The
    results are bit-identical to running :func:`merge_parallel` (the
    step-for-step Figure 4 merge) on the full stream, the LOAD-only
    subset and the STORE-only subset, without its 2n-endpoint
    lexicographic sort.

    ``kinds`` is a ``uint8`` vector parallel to ``intervals`` holding
    :data:`~repro.intervals.interval.KIND_LOAD` /
    :data:`~repro.intervals.interval.KIND_STORE` bit flags.
    """
    arr = as_interval_array(intervals)
    kinds = np.asarray(kinds, dtype=np.uint8)
    n = arr.shape[0]
    if kinds.shape[0] != n:
        raise ValueError(
            f"kinds ({kinds.shape[0]}) must be parallel to intervals ({n})"
        )
    if n == 0:
        return KindedMerge(
            _empty_intervals(), _empty_intervals(), _empty_intervals()
        )

    starts, ends, flags = arr[:, 0], arr[:, 1], kinds
    if np.any(starts[1:] < starts[:-1]):
        order = np.argsort(starts)
        starts, ends, flags = starts[order], ends[order], flags[order]

    def kind_runs(bit: int) -> np.ndarray:
        mask = (flags & bit) != 0
        return _coverage_runs(starts[mask], ends[mask])

    return KindedMerge(
        combined=_coverage_runs(starts, ends),
        reads=kind_runs(KIND_LOAD),
        writes=kind_runs(KIND_STORE),
    )
