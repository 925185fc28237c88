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
coverages from one exact fact.  Sort the starts ``S`` and the ends ``E``
of a set of intervals each on its own.  Then the start-ordered sweep
breaks a run after position ``i`` exactly when ``S[i+1] > E[i]``, and
that run ends at ``E[i]``.  Proof: the running maximum ``R[i]`` of the
first ``i+1`` ends in start order is at least ``E[i]``, the ``(i+1)``-th
smallest end, so a break of the sweep (``S[i+1] > R[i]``) has
``S[i+1] > E[i]``.  Conversely, if ``S[i+1] > E[i]``, the ``i+1``
intervals with the smallest ends all start below ``S[i+1]``, so they are
exactly the first ``i+1`` in start order, and ``R[i] = E[i]``.  The runs
are ``(S[head], E[last])``: two plain sorts, with no argsort and no
gather of ends or flags through a permutation.
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
    """The three merged coverages of one kind-tagged interval stream."""

    combined: np.ndarray
    reads: np.ndarray
    writes: np.ndarray


def _empty_intervals() -> np.ndarray:
    return np.empty((0, 2), dtype=np.uint64)


def _coverage_runs(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Maximal covered runs of the intervals ``[starts[i], ends[i])``.

    The arrays are overwritten: the ends by their running maximum when
    the starts ascend, else both sorted apart.  Either way a run breaks
    after ``i`` where ``starts[i + 1] > ends[i]`` (touching intervals
    merge) and ends at ``ends[i]``.
    """
    if starts.size == 0:
        return _empty_intervals()
    if np.any(starts[1:] < starts[:-1]):
        starts.sort()
        ends.sort()
    else:
        np.maximum.accumulate(ends, out=ends)
    last = np.flatnonzero(starts[1:] > ends[:-1])
    out = np.empty((last.size + 1, 2), dtype=np.uint64)
    out[0, 0] = starts[0]
    out[1:, 0] = starts[last + 1]
    out[:-1, 1] = ends[last]
    out[-1, 1] = ends[-1]
    return out


def merge_parallel_kinds(intervals: Iterable, kinds: np.ndarray) -> KindedMerge:
    """Kind-aware merge (the collector's hot path).

    The read and write coverages are the runs of the LOAD and the STORE
    subset: no sort when the subset's starts already ascend (as after
    compacting a sequential sweep), else its starts and ends sorted
    apart.  The combined coverage is the runs of those few thousand
    runs and of any interval whose flags carry neither bit.  The
    results are bit-identical to :func:`merge_parallel` (the
    step-for-step Figure 4 merge) on the full stream, the LOAD-only
    subset and the STORE-only subset.

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

    starts, ends = arr[:, 0], arr[:, 1]

    def runs_of(mask: np.ndarray) -> np.ndarray:
        # Boolean subsets are copies, which _coverage_runs may overwrite.
        return _coverage_runs(starts[mask], ends[mask])

    reads = runs_of((kinds & KIND_LOAD) != 0)
    writes = runs_of((kinds & KIND_STORE) != 0)
    untagged = arr[(kinds & (KIND_LOAD | KIND_STORE)) == 0]
    both = np.concatenate((reads, writes, untagged))
    return KindedMerge(
        combined=_coverage_runs(both[:, 0].copy(), both[:, 1].copy()),
        reads=reads,
        writes=writes,
    )
