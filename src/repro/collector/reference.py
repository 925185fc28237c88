"""Reference (pre-optimization) launch pipeline — the test oracle.

Like :func:`repro.intervals.interval.merge_reference`, this module keeps
a deliberately naive implementation around as ground truth: the
triple-pass launch pipeline (separate compact+merge per access kind,
per-interval Python routing, per-lookup list rebuilds) that the
production :class:`~repro.collector.collector.DataCollector` replaced
with the kind-aware single-pass sweep.

It shares no hot-path code with the optimized collector, so the
equivalence tests (``tests/collector/test_singlepass_equivalence.py``)
can assert byte-identical :class:`LaunchObservation` output, and the
``benchmarks/test_collector_hotpath.py`` microbenchmark can measure the
speedup of the single-pass pipeline against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collector.collector import (
    DataCollector,
    LaunchObservation,
    ObjectRead,
    ObjectWrite,
)
from repro.collector.objects import DataObject, DataObjectRegistry
from repro.gpu.accesses import AccessKind, AccessRecord
from repro.gpu.dtypes import DType
from repro.gpu.runtime import KernelLaunchEvent
from repro.intervals.compaction import warp_compact
from repro.intervals.copyplan import plan_copy
from repro.intervals.interval import intervals_from_accesses
from repro.intervals.parallel import merge_parallel


def reference_find_by_address(
    registry: DataObjectRegistry, address: int
) -> Optional[DataObject]:
    """Per-lookup list-rebuilding resolver (the replaced implementation)."""
    objects = registry.live_objects()
    starts = [o.address for o in objects]
    pos = int(np.searchsorted(starts, address, side="right")) - 1
    if pos < 0:
        return None
    candidate = objects[pos]
    return candidate if address < candidate.end else None


def reference_assign_intervals(
    registry: DataObjectRegistry, merged: np.ndarray
) -> Dict[int, np.ndarray]:
    """Per-interval Python routing loop (the replaced implementation)."""
    result: Dict[int, List[Tuple[int, int]]] = {}
    objects = registry.live_objects()
    if merged.size == 0 or not objects:
        return {}
    starts = np.array([o.address for o in objects], dtype=np.uint64)
    for start, end in merged:
        start, end = int(start), int(end)
        pos = int(np.searchsorted(starts, start, side="right")) - 1
        pos = max(pos, 0)
        while pos < len(objects) and objects[pos].address < end:
            obj = objects[pos]
            lo = max(start, obj.address)
            hi = min(end, obj.end)
            if lo < hi:
                result.setdefault(obj.alloc_id, []).append((lo, hi))
            pos += 1
    return {
        alloc_id: np.array(ranges, dtype=np.uint64)
        for alloc_id, ranges in result.items()
    }


class ReferenceCollector(DataCollector):
    """A :class:`DataCollector` running the triple-pass launch pipeline.

    Only ``_process_records`` and ``_build_fine_views`` differ from the
    production collector; everything else (snapshots, buffer accounting,
    observation layout) is inherited, so observations from the two
    collectors over identical API streams must be byte-identical.
    """

    def _process_records(
        self, event: KernelLaunchEvent, obs: LaunchObservation
    ) -> None:
        records = event.records
        access_count = sum(r.count for r in records)
        self.counters.recorded_accesses += access_count
        self.buffer.deposit(access_count)
        self.buffer.drain()
        self.counters.buffer_flushes = self.buffer.flushes

        raw = intervals_from_accesses(records)
        self.counters.raw_intervals += int(raw.shape[0])
        compacted = warp_compact(raw) if raw.shape[0] else raw
        self.counters.compacted_intervals += int(compacted.shape[0])
        merged = merge_parallel(compacted) if compacted.shape[0] else compacted
        self.counters.merged_intervals += int(merged.shape[0])

        for alloc, _nread, _nwritten in event.touched:
            self._ensure_tracked(alloc)

        write_records = [r for r in records if r.kind is AccessKind.STORE]
        write_raw = intervals_from_accesses(write_records)
        write_merged = (
            merge_parallel(warp_compact(write_raw))
            if write_raw.shape[0]
            else write_raw
        )
        read_records = [r for r in records if r.kind is AccessKind.LOAD]
        read_raw = intervals_from_accesses(read_records)
        read_merged = (
            merge_parallel(warp_compact(read_raw))
            if read_raw.shape[0]
            else read_raw
        )

        by_object = reference_assign_intervals(self.registry, merged)
        writes_by_object = reference_assign_intervals(
            self.registry, write_merged
        )
        reads_by_object = reference_assign_intervals(self.registry, read_merged)

        for alloc_id, intervals in by_object.items():
            obj = self.registry.get(alloc_id)
            if obj is None or not self.snapshots.is_tracked(alloc_id):
                continue
            read_intervals = reads_by_object.get(alloc_id)
            if read_intervals is not None and read_intervals.size:
                obs.reads.append(
                    ObjectRead(
                        obj=obj,
                        nbytes=int(
                            (read_intervals[:, 1] - read_intervals[:, 0]).sum()
                        ),
                    )
                )
            write_intervals = writes_by_object.get(alloc_id)
            if write_intervals is None or write_intervals.size == 0:
                continue
            plan = plan_copy(intervals, obj.address, obj.size, self.copy_policy)
            before, after = self.snapshots.refresh_plan(obj, plan)
            write_bytes = int(
                (write_intervals[:, 1] - write_intervals[:, 0]).sum()
            )
            obs.writes.append(
                ObjectWrite(
                    obj=obj,
                    before=before,
                    after=after,
                    written_runs=self.snapshots.element_runs(
                        obj, write_intervals
                    ),
                    nbytes=write_bytes,
                )
            )

        if self._fine_this_launch:
            self._build_fine_views(event, obs)

    def _build_fine_views(
        self, event: KernelLaunchEvent, obs: LaunchObservation
    ) -> None:
        from repro.collector.collector import FineView, UntypedGroup

        typed: Dict[Tuple[int, DType], List[AccessRecord]] = {}
        untyped: Dict[Tuple[int, int], List[AccessRecord]] = {}
        record_objects: Dict[int, Optional[DataObject]] = {}
        shared_obj = self._shared_pseudo_object(event)
        for record in event.records:
            if record.count == 0:
                continue
            address = int(record.addresses[0])
            if address not in record_objects:
                obj = reference_find_by_address(self.registry, address)
                if obj is None and shared_obj is not None and any(
                    start <= address < end
                    for start, end, _ in event.shared_ranges
                ):
                    obj = shared_obj
                record_objects[address] = obj
            obj = record_objects[address]
            if obj is None:
                continue
            if record.dtype is None:
                untyped.setdefault((obj.alloc_id, record.pc), []).append(record)
            else:
                typed.setdefault((obj.alloc_id, record.dtype), []).append(record)

        for (alloc_id, dtype), records in typed.items():
            obj = self.registry.get(alloc_id)
            if obj is None and shared_obj is not None:
                obj = shared_obj
            obs.fine_views.append(
                FineView(
                    obj=obj,
                    dtype=dtype,
                    values=np.concatenate([r.values for r in records]),
                    addresses=np.concatenate([r.addresses for r in records]),
                )
            )
        for (alloc_id, pc), records in untyped.items():
            obj = self.registry.get(alloc_id)
            if obj is None and shared_obj is not None:
                obj = shared_obj
            obs.untyped_groups.append(
                UntypedGroup(
                    obj=obj,
                    kernel=event.kernel,
                    pc=pc,
                    raw_values=np.concatenate([r.values for r in records]),
                    addresses=np.concatenate([r.addresses for r in records]),
                )
            )
