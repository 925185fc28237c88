"""CPU-side value snapshots (paper Sections 5.1 and 6.1).

"A data object's value snapshot is updated upon the exit from A and is
maintained on the CPU to reduce the GPU memory consumption."

The store keeps one typed array per object, mirroring device contents
as of the last GPU API.  Updates go through a
:class:`~repro.intervals.copyplan.CopyPlan` so the bytes moved and copy
invocations are exactly what the adaptive copy mechanism would incur —
those counters feed the overhead model.

Each mirror carries its chunk digests (:mod:`repro.utils.hashing`).  A
refresh compares the bytes it reads with the bytes they replace and
rehashes only the chunks that differ, so an API that rewrites an
object with the values it already held costs a comparison, not a hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.collector.objects import DataObject
from repro.errors import CollectionError
from repro.intervals.copyplan import CopyPlan
from repro.utils.hashing import (
    DIGEST_CHUNK_BYTES,
    changed_chunks,
    chunk_digests,
    combine_digests,
    refresh_chunk_digests,
)


@dataclass
class SnapshotTraffic:
    """Measurement traffic generated by snapshot maintenance."""

    bytes_copied: int = 0
    copy_invocations: int = 0

    def add_plan(self, plan: CopyPlan) -> None:
        """Account one executed copy plan's traffic."""
        self.bytes_copied += plan.bytes_transferred
        self.copy_invocations += plan.invocations


class SnapshotStore:
    """Maintains the CPU mirror of every tracked object's values."""

    def __init__(self):
        self._snapshots: Dict[int, np.ndarray] = {}
        self._chunks: Dict[int, List[str]] = {}
        self._digests: Dict[int, str] = {}
        self.traffic = SnapshotTraffic()

    def track(self, obj: DataObject) -> None:
        """Begin tracking an object; its initial snapshot is captured
        from the device (a fresh allocation's contents)."""
        if obj.alloc_id in self._snapshots:
            raise CollectionError(f"object {obj.label!r} already tracked")
        if obj.handle is None:
            raise CollectionError(f"object {obj.label!r} has no device handle")
        snapshot = obj.handle.read_all()
        self._snapshots[obj.alloc_id] = snapshot
        self._chunks[obj.alloc_id] = chunk_digests(snapshot)
        self._digests.pop(obj.alloc_id, None)
        self.traffic.bytes_copied += obj.size
        self.traffic.copy_invocations += 1

    def forget(self, obj: DataObject) -> None:
        """Stop tracking an object (e.g. after free)."""
        self._snapshots.pop(obj.alloc_id, None)
        self._chunks.pop(obj.alloc_id, None)
        self._digests.pop(obj.alloc_id, None)

    def is_tracked(self, alloc_id: int) -> bool:
        """Whether a snapshot exists for the allocation id."""
        return alloc_id in self._snapshots

    @property
    def mirror_bytes(self) -> int:
        """Current CPU-mirror footprint (the memory-budget input)."""
        return sum(s.nbytes for s in self._snapshots.values())

    def tracked_ids(self) -> List[int]:
        """Allocation ids with a live mirror."""
        return list(self._snapshots.keys())

    def evict(self, alloc_id: int) -> int:
        """Drop one mirror under memory pressure; returns bytes freed."""
        snapshot = self._snapshots.pop(alloc_id, None)
        self._chunks.pop(alloc_id, None)
        self._digests.pop(alloc_id, None)
        return 0 if snapshot is None else int(snapshot.nbytes)

    def snapshot(self, alloc_id: int) -> np.ndarray:
        """The current CPU mirror (state as of the previous GPU API)."""
        try:
            return self._snapshots[alloc_id]
        except KeyError:
            raise CollectionError(f"object {alloc_id} is not tracked") from None

    def digest(self, alloc_id: int) -> str:
        """Combined value digest of the current mirror.

        Chunk digests are maintained incrementally by the refresh
        methods, so after a partial refresh only the dirty chunks were
        rehashed; the combination is cached until the next refresh.
        """
        cached = self._digests.get(alloc_id)
        if cached is None:
            try:
                chunks = self._chunks[alloc_id]
            except KeyError:
                raise CollectionError(
                    f"object {alloc_id} is not tracked"
                ) from None
            cached = combine_digests(chunks)
            self._digests[alloc_id] = cached
        return cached

    # -- updates -------------------------------------------------------------

    def refresh_full(self, obj: DataObject) -> Tuple[np.ndarray, np.ndarray]:
        """Direct copy (Figure 5a): re-mirror the whole object.

        Returns ``(before, after)`` snapshots (before is a copy).  Only
        the chunks in which ``after`` differs from ``before`` are
        rehashed.
        """
        # The store replaces its reference with ``after``, so the old
        # array can be handed out as ``before`` without copying.
        before = self.snapshot(obj.alloc_id)
        after = obj.handle.read_all()
        self._snapshots[obj.alloc_id] = after
        self._rehash(obj.alloc_id, after, changed_chunks(before, after))
        self.traffic.bytes_copied += obj.size
        self.traffic.copy_invocations += 1
        return before, after

    def refresh_plan(
        self, obj: DataObject, plan: CopyPlan, want_before: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Refresh only the planned ranges (min-max or segment copy).

        Returns ``(before, after)`` full-object snapshots; elements
        outside the planned ranges are identical in both by
        construction, so the redundancy computation (restricted to
        the written element runs, which lie inside the ranges) is
        unaffected.

        With ``want_before=False`` the mirror is patched in place and
        ``before`` comes back empty: callers that only need the
        refreshed bytes and digests (a sharded replay's passive prefix)
        skip the full-object copy that ``before`` would require.  The
        chunk digests are maintained identically either way: each range
        is compared with the mirror before it is patched, and only the
        chunks it changed are rehashed.
        """
        before = self.snapshot(obj.alloc_id)
        if want_before:
            after = before.copy()
        else:
            after = before
            before = after[:0]
        itemsize = obj.dtype.itemsize
        changed = set()
        for start, end in plan.ranges:
            lo = max(0, (int(start) - obj.address) // itemsize)
            hi = min(obj.handle.nelems, -(-(int(end) - obj.address) // itemsize))
            if lo < hi:
                fresh = obj.handle.read_range(lo, hi)
                changed.update(changed_chunks(after[lo:hi], fresh, lo * itemsize))
                after[lo:hi] = fresh
        self._snapshots[obj.alloc_id] = after
        self._rehash(obj.alloc_id, after, changed)
        self.traffic.add_plan(plan)
        return before, after

    def _rehash(
        self, alloc_id: int, snapshot: np.ndarray, changed: Iterable[int]
    ) -> None:
        """Rehash the ``changed`` chunks of a refreshed mirror; when none
        changed, the cached combined digest stays valid."""
        ranges = [
            (index * DIGEST_CHUNK_BYTES, (index + 1) * DIGEST_CHUNK_BYTES)
            for index in changed
        ]
        if ranges:
            refresh_chunk_digests(snapshot, self._chunks[alloc_id], ranges)
            self._digests.pop(alloc_id, None)

    def element_runs(self, obj: DataObject, intervals: np.ndarray) -> np.ndarray:
        """Element runs ``[lo, hi)`` of an object covered by byte intervals.

        One ``(n, 2)`` int64 row per interval, in interval order: the
        elements it overlaps, clipped to the object, with ``lo <= hi``
        (an interval that misses the object gives an empty run).  An
        element that two unaligned intervals share lies in both runs.
        """
        itemsize = obj.dtype.itemsize
        # Byte offsets into the object, clamped to its elements, so
        # nothing wraps below it or overflows near 2**64.
        address = np.uint64(obj.address)
        offsets = np.minimum(
            np.maximum(np.asarray(intervals, np.uint64), address) - address,
            obj.handle.nelems * itemsize,
        )
        offsets[:, 1] += itemsize - 1  # an end inside an element covers it
        runs = (offsets // itemsize).view(np.int64)
        np.maximum(runs[:, 1], runs[:, 0], out=runs[:, 1])
        return runs
