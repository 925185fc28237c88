"""Interval representation and reference semantics.

Intervals are half-open byte ranges ``[start, end)`` stored as an
``(n, 2)`` ``uint64`` array.  Per the paper, intervals that are adjacent
*or* overlapping are merged — adjacency matters because coalesced GPU
accesses produce runs of touching element-sized intervals that must
collapse into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidValueError


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open byte interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise InvalidValueError(
                f"interval end must exceed start (got [{self.start}, {self.end}))"
            )

    @property
    def length(self) -> int:
        """Bytes covered by the interval."""
        return self.end - self.start

    def overlaps_or_touches(self, other: "Interval") -> bool:
        """Whether the two intervals should merge."""
        return self.start <= other.end and other.start <= self.end


def as_interval_array(intervals: Iterable) -> np.ndarray:
    """Normalize intervals to an ``(n, 2)`` uint64 array.

    Accepts an ``(n, 2)`` array, a sequence of :class:`Interval`, or a
    sequence of ``(start, end)`` pairs.
    """
    if isinstance(intervals, np.ndarray):
        arr = intervals
    else:
        items = list(intervals)
        if items and isinstance(items[0], Interval):
            arr = np.array([(iv.start, iv.end) for iv in items], dtype=np.uint64)
        else:
            arr = np.array(items, dtype=np.uint64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.uint64)
    arr = np.asarray(arr, dtype=np.uint64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidValueError(f"intervals must be (n, 2), got shape {arr.shape}")
    if np.any(arr[:, 1] <= arr[:, 0]):
        raise InvalidValueError("every interval must have end > start")
    return arr


def intervals_from_accesses(records: Sequence) -> np.ndarray:
    """Build the raw interval array from a launch's access records."""
    parts = [record.intervals() for record in records if record.count]
    if not parts:
        return np.empty((0, 2), dtype=np.uint64)
    return np.concatenate(parts, axis=0)


#: Kind flag bits carried alongside intervals through the single-pass
#: pipeline.  A raw interval is exactly one of these; compaction only
#: merges runs with equal flags, so the per-kind coverage is preserved.
KIND_LOAD = 1
KIND_STORE = 2


def intervals_from_accesses_kinds(
    records: Sequence,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw intervals plus a parallel ``uint8`` LOAD/STORE flag vector.

    This is the entry point of the kind-aware single-pass pipeline: the
    launch's records are walked once, and downstream stages derive the
    combined, read-only, and write-only coverage from the tagged stream
    instead of re-filtering and re-merging per access kind.  Each
    record's intervals are its addresses plus its item size, so the
    array is one concatenation of the addresses and one add.  It is
    column-major: the starts and the ends are each contiguous, which is
    how :func:`~repro.intervals.compaction.warp_compact_kinds` reads
    them.
    """
    records = [record for record in records if record.count]
    if not records:
        return np.empty((0, 2), dtype=np.uint64), np.empty(0, dtype=np.uint8)
    counts = [record.count for record in records]
    starts, ends = out = np.empty((2, sum(counts)), dtype=np.uint64)
    np.concatenate(
        [record.addresses for record in records], out=starts, casting="unsafe"
    )
    itemsizes = np.array([record.itemsize for record in records], np.uint64)
    np.add(starts, np.repeat(itemsizes, counts), out=ends)
    flags = [
        KIND_STORE if record.kind.value == "store" else KIND_LOAD
        for record in records
    ]
    return out.T, np.repeat(np.array(flags, dtype=np.uint8), counts)


def run_points(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The int64 points of the runs ``[lo[i], lo[i] + counts[i])``,
    concatenated in order, with one ``repeat`` and no loop."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    points = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    points += np.repeat(np.asarray(lo, dtype=np.int64) - (ends - counts), counts)
    return points


def merge_reference(intervals: Iterable) -> List[Interval]:
    """Brute-force reference merge used as the test oracle.

    Builds a byte-level coverage map; correct by construction, and
    deliberately naive so it shares no code with the real algorithms.
    """
    arr = as_interval_array(intervals)
    if arr.shape[0] == 0:
        return []
    base = int(arr[:, 0].min())
    top = int(arr[:, 1].max())
    covered = np.zeros(top - base, dtype=bool)
    for start, end in arr:
        covered[int(start) - base : int(end) - base] = True
    merged: List[Interval] = []
    run_start = None
    for offset, flag in enumerate(covered):
        if flag and run_start is None:
            run_start = offset
        elif not flag and run_start is not None:
            merged.append(Interval(base + run_start, base + offset))
            run_start = None
    if run_start is not None:
        merged.append(Interval(base + run_start, top))
    return merged


def total_covered_bytes(merged: np.ndarray) -> int:
    """Total bytes covered by a merged (disjoint) interval array."""
    arr = as_interval_array(merged)
    if arr.shape[0] == 0:
        return 0
    return int((arr[:, 1] - arr[:, 0]).sum())
