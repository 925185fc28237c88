"""Data-object registry (paper Section 5.1).

"ValueExpert intercepts object allocation and deallocation functions to
determine the life cycle of each data object created in GPU global
memory.  At each GPU memory allocation, ValueExpert records a data
object's allocation context, starting address, and size."

The registry also assigns merged access intervals back to the objects
they fall in, which is how per-object coarse analysis consumes the
output of the interval merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.dtypes import DType
from repro.gpu.memory import Allocation
from repro.utils.callpath import CallPath


@dataclass
class DataObject:
    """The collector's view of one GPU allocation."""

    alloc_id: int
    label: str
    address: int
    size: int
    dtype: DType
    alloc_context: Optional[CallPath]
    freed: bool = False
    #: The live Allocation handle (used to read values for snapshots).
    handle: Optional[Allocation] = None
    #: Device whose arena holds the object.  Devices share an address
    #: base, so the same address may name different objects on
    #: different devices; the binder index is therefore per-device.
    device: int = 0

    @property
    def end(self) -> int:
        """One past the object's last byte address."""
        return self.address + self.size


_EMPTY_INTERVALS = np.empty((0, 2), dtype=np.uint64)


@dataclass
class RoutedIntervals:
    """One object's share of a launch's merged coverage, per access kind."""

    combined: np.ndarray = field(default_factory=lambda: _EMPTY_INTERVALS)
    reads: np.ndarray = field(default_factory=lambda: _EMPTY_INTERVALS)
    writes: np.ndarray = field(default_factory=lambda: _EMPTY_INTERVALS)


class DataObjectRegistry:
    """Tracks live data objects and resolves addresses/intervals to them.

    Address resolution goes through a cached, address-sorted numpy index
    of live object bounds (invalidated on malloc/free), so the per-launch
    binder is a batched ``searchsorted`` instead of a Python list rebuild
    per lookup.
    """

    def __init__(self):
        self._objects: Dict[int, DataObject] = {}
        #: per-device address-sorted caches of live objects, rebuilt
        #: lazily: device -> (sorted objects, starts, ends).  Devices
        #: share an address base, so one flat index would mis-resolve
        #: colliding addresses across devices.
        self._cache: Dict[
            int, Tuple[List[DataObject], np.ndarray, np.ndarray]
        ] = {}
        #: times an address index was (re)built — overhead-model input.
        self.index_rebuilds: int = 0

    def on_malloc(self, alloc: Allocation, call_path: Optional[CallPath]) -> DataObject:
        """Register a new allocation."""
        obj = DataObject(
            alloc_id=alloc.alloc_id,
            label=alloc.label,
            address=alloc.address,
            size=alloc.size,
            dtype=alloc.dtype,
            alloc_context=call_path,
            handle=alloc,
            device=alloc.device,
        )
        self._objects[alloc.alloc_id] = obj
        self._cache.pop(obj.device, None)
        return obj

    def on_free(self, alloc: Allocation) -> None:
        """Mark an object freed (it stays queryable for postmortem use)."""
        obj = self._objects.get(alloc.alloc_id)
        if obj is not None:
            obj.freed = True
            self._cache.pop(obj.device, None)

    def get(self, alloc_id: int) -> Optional[DataObject]:
        """The object registered under an allocation id, if any."""
        return self._objects.get(alloc_id)

    def _index(
        self, device: int = 0
    ) -> Tuple[List[DataObject], np.ndarray, np.ndarray]:
        """One device's live objects with cached sorted address bounds."""
        cached = self._cache.get(device)
        if cached is None:
            objects = sorted(
                (
                    o
                    for o in self._objects.values()
                    if not o.freed and o.device == device
                ),
                key=lambda o: o.address,
            )
            starts = np.array([o.address for o in objects], dtype=np.uint64)
            ends = np.array([o.end for o in objects], dtype=np.uint64)
            cached = (objects, starts, ends)
            self._cache[device] = cached
            self.index_rebuilds += 1
        return cached

    def live_objects(self, device: int = 0) -> List[DataObject]:
        """One device's live objects in address order."""
        return self._index(device)[0]

    def live_count(self) -> int:
        """Number of live objects, without building the address index.

        Telemetry reads this instead of ``len(live_objects())``: the
        index rebuild is counted into the profile's ``binder_rebuilds``
        counter, so an observability-only rebuild would make profiles
        differ between telemetry-on and telemetry-off runs.
        """
        return sum(1 for o in self._objects.values() if not o.freed)

    def all_objects(self) -> List[DataObject]:
        """Every object ever registered, by allocation id."""
        return sorted(self._objects.values(), key=lambda o: o.alloc_id)

    def find_by_address(self, address: int, device: int = 0) -> Optional[DataObject]:
        """The live object containing a byte address, if any."""
        objects, starts, ends = self._index(device)
        if not objects:
            return None
        pos = int(np.searchsorted(starts, np.uint64(address), side="right")) - 1
        if pos < 0:
            return None
        return objects[pos] if address < int(ends[pos]) else None

    def find_by_addresses(
        self, addresses: Sequence[int], device: int = 0
    ) -> List[Optional[DataObject]]:
        """Batch :meth:`find_by_address`: one ``searchsorted`` for all.

        Returns a list parallel to ``addresses`` with ``None`` where no
        live object contains the address.
        """
        objects, starts, ends = self._index(device)
        addrs = np.asarray(addresses, dtype=np.uint64)
        if not objects or addrs.size == 0:
            return [None] * int(addrs.size)
        pos = np.searchsorted(starts, addrs, side="right").astype(np.int64) - 1
        inside = pos >= 0
        inside[inside] = addrs[inside] < ends[pos[inside]]
        return [
            objects[p] if ok else None
            for p, ok in zip(pos.tolist(), inside.tolist())
        ]

    def _overlaps(
        self, merged: np.ndarray, device: int = 0
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(object index, clipped (m, 2) intervals)`` per object.

        ``merged`` must be sorted and disjoint (merge output), so each
        object's clipped pieces are contiguous in the expansion and the
        grouping is a single pass.  Intervals falling outside every live
        object are dropped (e.g. accesses to already-freed memory — a
        bug in the workload, not in the profiler).
        """
        objects, starts, ends = self._index(device)
        if merged.size == 0 or not objects:
            return
        ivs = merged[:, 0]
        ive = merged[:, 1]
        # An interval may span several objects (adjacent allocs merged
        # by adjacency): objects [first, last) overlap it.
        first = np.searchsorted(ends, ivs, side="right")
        last = np.searchsorted(starts, ive, side="left")
        counts = np.maximum(last.astype(np.int64) - first.astype(np.int64), 0)
        total = int(counts.sum())
        if total == 0:
            return
        iv_idx = np.repeat(np.arange(merged.shape[0]), counts)
        run_offsets = np.cumsum(counts) - counts
        obj_idx = (
            np.repeat(first, counts)
            + np.arange(total)
            - np.repeat(run_offsets, counts)
        ).astype(np.int64)
        lo = np.maximum(ivs[iv_idx], starts[obj_idx])
        hi = np.minimum(ive[iv_idx], ends[obj_idx])
        keep = lo < hi
        obj_idx, lo, hi = obj_idx[keep], lo[keep], hi[keep]
        if obj_idx.size == 0:
            return
        clipped = np.stack([lo, hi], axis=1)
        # merged is sorted+disjoint -> obj_idx is nondecreasing, so each
        # object's rows form one contiguous run.
        heads = [0] + (np.flatnonzero(np.diff(obj_idx)) + 1).tolist()
        tails = heads[1:] + [obj_idx.size]
        for head, tail, oi in zip(heads, tails, obj_idx[heads].tolist()):
            yield oi, clipped[head:tail]

    def assign_intervals(
        self, merged: np.ndarray, device: int = 0
    ) -> Dict[int, np.ndarray]:
        """Split merged, disjoint intervals among one device's live objects.

        Returns ``alloc_id -> (m, 2)`` intervals clipped to the object's
        range, in address order of first touch.
        """
        objects = self.live_objects(device)
        return {
            objects[oi].alloc_id: piece
            for oi, piece in self._overlaps(merged, device)
        }

    def route_intervals(
        self,
        combined: np.ndarray,
        reads: np.ndarray,
        writes: np.ndarray,
        device: int = 0,
    ) -> Dict[int, RoutedIntervals]:
        """One binder sweep routing all three merged coverages to objects.

        Read/write coverage is a subset of the combined coverage, so the
        result is keyed (and ordered) by the combined assignment; each
        value carries the object's clipped share of every kind.
        Addresses resolve against ``device``'s live objects only.
        """
        objects = self.live_objects(device)
        routed: Dict[int, RoutedIntervals] = {
            objects[oi].alloc_id: RoutedIntervals(combined=piece)
            for oi, piece in self._overlaps(combined, device)
        }
        for oi, piece in self._overlaps(reads, device):
            route = routed.get(objects[oi].alloc_id)
            if route is not None:
                route.reads = piece
        for oi, piece in self._overlaps(writes, device):
            route = routed.get(objects[oi].alloc_id)
            if route is not None:
                route.writes = piece
        return routed
