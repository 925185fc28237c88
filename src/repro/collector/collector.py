"""The data collector: runtime interception and measurement routing.

The collector is a :class:`~repro.gpu.runtime.RuntimeListener`.  Per GPU
API it produces *observations* — self-contained records carrying the
snapshots, intervals, and value views the analyzers need — and forwards
them to an attached analyzer (usually
:class:`repro.analysis.online.OnlineAnalyzer`; tests attach stubs).

Per kernel launch, the measurement pipeline follows Section 6.1, as a
*single* kind-aware pass over the access stream:

1. access records are deposited into the bounded profiling buffer
   (flush count feeds the overhead model);
2. their byte intervals are tagged LOAD/STORE once, warp-compacted
   once (kind-preserving), and merged into the read, write and
   combined coverages together: each kind's starts and ends are
   sorted apart, and the combined coverage merges the two kinds' runs;
3. all three coverages are routed to data objects in one batched
   binder sweep over the registry's cached address index;
4. each written object's snapshot is refreshed through an adaptive
   copy plan, yielding before/after pairs and the written element runs
   for the coarse analysis;
5. typed values are grouped per (object, access type) into fine views
   (record base addresses resolve through one batched lookup); untyped
   records are kept for offline access-type resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as telemetry
from repro.collector.gpubuffer import ProfilingBuffer
from repro.collector.objects import DataObject, DataObjectRegistry
from repro.collector.sampling import KernelSampler, SamplingConfig
from repro.collector.snapshots import SnapshotStore
from repro.gpu.accesses import AccessRecord
from repro.gpu.dtypes import DType
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import (
    ApiEvent,
    FreeEvent,
    HostArray,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemcpyKind,
    MemsetEvent,
    RuntimeListener,
)
from repro.intervals.compaction import warp_compact_kinds
from repro.intervals.copyplan import AdaptiveCopyPolicy, plan_copy
from repro.intervals.interval import intervals_from_accesses_kinds
from repro.intervals.parallel import merge_parallel_kinds
from repro.utils.callpath import CallPath
from repro.utils.hashing import same_bytes, snapshot_digest

#: Shared placeholder for the read coverage, which the passive prefix
#: of a sharded replay never reads.
_EMPTY_INTERVALS = np.empty((0, 2), dtype=np.uint64)


# --------------------------------------------------------------------------
# Observations handed to the analyzers
# --------------------------------------------------------------------------


@dataclass
class ObjectWrite:
    """One object written by an API, with coarse-analysis snapshots."""

    obj: DataObject
    before: np.ndarray
    after: np.ndarray
    #: Element runs ``[lo, hi)`` the API wrote: an ``(n, 2)`` int64
    #: array in write order, whose runs may share an element.
    written_runs: np.ndarray
    nbytes: int
    #: incremental value digest of ``after`` from the snapshot store;
    #: saves the pattern engine rehashing unchanged regions.
    digest: Optional[str] = None


@dataclass
class ObjectRead:
    """One object read by an API."""

    obj: DataObject
    nbytes: int


@dataclass
class FineView:
    """Typed accessed values of one object at one launch."""

    obj: DataObject
    dtype: DType
    values: np.ndarray
    addresses: np.ndarray


@dataclass
class UntypedGroup:
    """Raw-bit values whose access type needs offline slicing."""

    obj: DataObject
    kernel: Kernel
    pc: int
    raw_values: np.ndarray
    addresses: np.ndarray


@dataclass
class MemoryApiObservation:
    """A memcpy/memset invocation, post-effect."""

    seq: int
    api: str
    name: str
    call_path: Optional[CallPath]
    time_s: float
    annotation: Tuple[str, ...] = ()
    writes: List[ObjectWrite] = field(default_factory=list)
    reads: List[ObjectRead] = field(default_factory=list)
    host_source: bool = False
    host_sink: bool = False
    host_array: Optional[HostArray] = None
    #: Value digest of ``host_array``, set whenever it is: the device
    #: mirror's digest when the mirror holds exactly the host bytes.
    host_digest: Optional[str] = None
    #: Device the API executed on (source device for peer copies).
    device: int = 0


@dataclass
class LaunchObservation:
    """A kernel launch, post-execution."""

    seq: int
    kernel_name: str
    call_path: Optional[CallPath]
    time_s: float
    grid: int
    block: int
    annotation: Tuple[str, ...] = ()
    writes: List[ObjectWrite] = field(default_factory=list)
    reads: List[ObjectRead] = field(default_factory=list)
    fine_views: List[FineView] = field(default_factory=list)
    untyped_groups: List[UntypedGroup] = field(default_factory=list)
    fine_enabled: bool = False
    #: The kernel raised mid-launch; the launch stays in the flow graph
    #: but its (partial) measurements are excluded from pattern mining.
    quarantined: bool = False
    fault: str = ""
    #: Device the kernel ran on.
    device: int = 0


@dataclass
class CollectionCounters:
    """Everything the overhead model needs to price a profiling run."""

    apis_intercepted: int = 0
    total_launches: int = 0
    instrumented_launches: int = 0
    fine_launches: int = 0
    recorded_accesses: int = 0
    buffer_flushes: int = 0
    raw_intervals: int = 0
    compacted_intervals: int = 0
    merged_intervals: int = 0
    snapshot_bytes: int = 0
    snapshot_copies: int = 0
    #: one per instrumented launch: the single compact+merge+route pass.
    interval_sweeps: int = 0
    #: address-index (binder) cache rebuilds, i.e. malloc/free churn.
    binder_rebuilds: int = 0


# --------------------------------------------------------------------------
# Collector
# --------------------------------------------------------------------------


class DataCollector(RuntimeListener):
    """Intercepts GPU APIs and feeds observations to an analyzer.

    Parameters
    ----------
    analyzer:
        Object with ``on_malloc(obj)``, ``on_free(obj)``,
        ``on_memory_api(observation)`` and ``on_launch(observation)``
        hooks.
    coarse / fine:
        Which analyses are active.  Coarse analysis instruments every
        kernel for addresses (it needs accessed intervals); fine
        analysis additionally captures values, under sampling.
    sampling:
        Kernel/block sampling and kernel filtering for fine analysis.
    """

    #: The paper's collector serializes concurrent GPU streams.
    serializes_streams = True

    def __init__(
        self,
        analyzer,
        coarse: bool = True,
        fine: bool = True,
        sampling: SamplingConfig = SamplingConfig(),
        buffer_bytes: int = 16 * 1024 * 1024,
        copy_policy: AdaptiveCopyPolicy = AdaptiveCopyPolicy(),
        health=None,
        memory_budget_bytes: Optional[int] = None,
    ):
        self.analyzer = analyzer
        self.coarse = coarse
        self.fine = fine
        self.sampler = KernelSampler(sampling)
        self.registry = DataObjectRegistry()
        self.snapshots = SnapshotStore()
        self.buffer = ProfilingBuffer(buffer_bytes)
        self.copy_policy = copy_policy
        self.counters = CollectionCounters()
        #: Optional :class:`repro.resilience.HealthReport` — present only
        #: on resilient runs; every degradation below is recorded there.
        self.health = health
        #: CPU-mirror budget; exceeding it descends the degradation
        #: ladder (full -> sampled -> coarse-only -> quarantined).
        self.memory_budget_bytes = memory_budget_bytes
        #: When False (sharded analysis warming up over another shard's
        #: prefix), the collector still runs its full pipeline — mirror
        #: refreshes, digests, sampler state must stay byte-identical to
        #: a serial run — but skips building fine views, whose only
        #: consumer is pattern analysis the prefix does not perform.
        self.analysis_active = True
        #: per-launch decision recorded at instrument_kernel time,
        #: consumed at on_api_end (the bus is serialized).
        self._fine_this_launch = False
        #: Current rung on the degradation ladder (0 = full fidelity).
        self._degradation_level = 0
        #: Block-sampling period forced by rung 1 (SamplingConfig is
        #: frozen, so the override lives here).
        self._forced_block_period: Optional[int] = None
        #: Rung 3 dropped the CPU mirrors; do not re-track objects.
        self._mirrors_evicted = False

    # -- RuntimeListener -----------------------------------------------------

    def instrument_kernel(self, kernel: Kernel, grid: int, block: int) -> bool:
        """Coarse mode instruments every launch; fine mode follows the sampler."""
        if self._degradation_level:
            return self._instrument_degraded(kernel)
        self._fine_this_launch = self.fine and self.sampler.should_instrument(
            kernel.name
        )
        return self.coarse or self._fine_this_launch

    def _instrument_degraded(self, kernel: Kernel) -> bool:
        """Instrumentation decision below full fidelity (see
        :data:`~repro.resilience.health.DEGRADATION_LADDER`): rung 1
        forces coarser block sampling (handled in :meth:`sample_blocks`),
        rung 2 disables fine collection, rung 3 stops instrumenting."""
        if self._degradation_level >= 3:
            self._fine_this_launch = False
            return False
        self._fine_this_launch = (
            self._degradation_level < 2
            and self.fine
            and self.sampler.should_instrument(kernel.name)
        )
        return self.coarse or self._fine_this_launch

    def sample_blocks(self, kernel: Kernel, grid: int):
        """Block-sampling mask for fine-instrumented launches."""
        if not self._fine_this_launch:
            return None
        return self.sampler.block_mask(grid, self._forced_block_period)

    def on_api_end(self, event: ApiEvent) -> None:
        """Count the API (overhead-model input) and dispatch it to its
        handler."""
        self.counters.apis_intercepted += 1
        if isinstance(event, MallocEvent):
            self._handle_malloc(event)
        elif isinstance(event, FreeEvent):
            self._handle_free(event)
        elif isinstance(event, MemcpyEvent):
            self._handle_memcpy(event)
        elif isinstance(event, MemsetEvent):
            self._handle_memset(event)
        elif isinstance(event, KernelLaunchEvent):
            self._handle_launch(event)

    # -- handlers -----------------------------------------------------------------

    def _handle_malloc(self, event: MallocEvent) -> None:
        obj = self.registry.on_malloc(event.alloc, event.call_path)
        if not self._mirrors_evicted:
            self.snapshots.track(obj)
        self._sync_snapshot_counters()
        if self.memory_budget_bytes is not None:
            self._enforce_budget()
        self.analyzer.on_malloc(obj)

    def _ensure_tracked(self, alloc) -> "DataObject":
        """Adopt an object allocated before the collector attached:
        register it (no allocation context) and snapshot its current
        contents, exactly as the tool does when attaching mid-run."""
        obj = self.registry.get(alloc.alloc_id)
        if obj is None:
            obj = self.registry.on_malloc(alloc, None)
            if not self._mirrors_evicted:
                self.snapshots.track(obj)
            self.analyzer.on_malloc(obj)
        elif not self.snapshots.is_tracked(obj.alloc_id):
            if not self._mirrors_evicted:
                self.snapshots.track(obj)
        return obj

    def _handle_free(self, event: FreeEvent) -> None:
        obj = self.registry.get(event.alloc.alloc_id)
        self.registry.on_free(event.alloc)
        if obj is not None:
            # Release the CPU mirror: the freed handle must never be
            # read again, and long runs must not accumulate snapshots.
            self.snapshots.forget(obj)
            self.analyzer.on_free(obj)

    def _summary_write(self, obj: DataObject, nbytes: int) -> ObjectWrite:
        """Snapshot-free write record (degradation rung 3: the CPU
        mirrors were evicted, so only sizes survive)."""
        empty = np.empty(0, dtype=obj.dtype.np_dtype)
        return ObjectWrite(
            obj=obj,
            before=empty,
            after=empty,
            written_runs=np.empty((0, 2), dtype=np.int64),
            nbytes=nbytes,
        )

    def _write_through_range(
        self, obj: DataObject, nbytes: int
    ) -> ObjectWrite:
        """Coarse bookkeeping for an API writing ``[0, nbytes)`` of obj."""
        if self._mirrors_evicted:
            return self._summary_write(obj, nbytes)
        before, after = self.snapshots.refresh_full(obj)
        # ``apply_memcpy`` and ``apply_memset`` write whole elements.
        count = min(nbytes // obj.dtype.itemsize, obj.handle.nelems)
        return ObjectWrite(
            obj=obj,
            before=before,
            after=after,
            written_runs=np.array([[0, count]], dtype=np.int64),
            nbytes=nbytes,
            digest=self.snapshots.digest(obj.alloc_id),
        )

    def _handle_memcpy(self, event: MemcpyEvent) -> None:
        span = (
            telemetry.tracer().begin(
                "collector.memory_api", api="memcpy", kind=event.kind.value
            )
            if telemetry.ENABLED
            else None
        )
        obs = MemoryApiObservation(
            seq=event.seq,
            api="memcpy",
            name=f"cudaMemcpy[{event.kind.value}]",
            call_path=event.call_path,
            time_s=event.time_s,
            annotation=event.annotation,
            host_source=event.kind is MemcpyKind.HOST_TO_DEVICE,
            host_sink=event.kind is MemcpyKind.DEVICE_TO_HOST,
            host_array=event.host_array,
            device=event.device,
        )
        if event.dst_alloc is not None:
            obj = self._ensure_tracked(event.dst_alloc)
            obs.writes.append(self._write_through_range(obj, event.nbytes))
        if event.src_alloc is not None:
            obj = self._ensure_tracked(event.src_alloc)
            obs.reads.append(ObjectRead(obj=obj, nbytes=event.nbytes))
        if event.host_array is not None:
            # H2D and D2H copies have exactly one device side: ``obj``.
            obs.host_digest = self._host_digest(event.host_array, obj)
        self._finish_memory_api(obs, span)

    def _host_digest(self, host: HostArray, obj: DataObject) -> str:
        """Digest of a copy's host array.

        After an H2D copy the destination's mirror usually holds the
        host bytes, and before a D2H copy the source's mirror does; the
        mirror's digest is then the host's, already maintained.  The
        bytes are compared, never assumed equal: a cast or prefix copy,
        a corrupted transfer or evicted mirrors hash the host array.
        """
        data = np.asarray(host.data)
        if self.snapshots.is_tracked(obj.alloc_id):
            mirror = self.snapshots.snapshot(obj.alloc_id)
            if mirror.dtype == data.dtype and same_bytes(mirror, data):
                return self.snapshots.digest(obj.alloc_id)
        return snapshot_digest(data)

    def _handle_memset(self, event: MemsetEvent) -> None:
        span = (
            telemetry.tracer().begin("collector.memory_api", api="memset")
            if telemetry.ENABLED
            else None
        )
        obs = MemoryApiObservation(
            seq=event.seq,
            api="memset",
            name="cudaMemset",
            call_path=event.call_path,
            time_s=event.time_s,
            annotation=event.annotation,
            device=event.device,
        )
        obj = self._ensure_tracked(event.alloc)
        obs.writes.append(self._write_through_range(obj, event.nbytes))
        self._finish_memory_api(obs, span)

    def _finish_memory_api(self, obs: MemoryApiObservation, span) -> None:
        """Close a memcpy/memset's span and hand its observation on."""
        self._sync_snapshot_counters()
        if span is not None:
            span.end()
            telemetry.counter(
                "repro_collector_memory_apis_total",
                "Memory APIs (memcpy/memset) processed by the collector.",
                labelnames=("api",),
            ).labels(api=obs.api).inc()
        self.analyzer.on_memory_api(obs)

    def _handle_launch(self, event: KernelLaunchEvent) -> None:
        self.counters.total_launches += 1
        if event.faulted or event.dropped_records:
            self._note_launch_faults(event)
        obs = LaunchObservation(
            seq=event.seq,
            kernel_name=event.kernel.name,
            call_path=event.call_path,
            time_s=event.time_s,
            grid=event.grid,
            block=event.block,
            annotation=event.annotation,
            fine_enabled=self._fine_this_launch,
            device=event.device,
        )
        if event.faulted:
            # Quarantine: keep the launch on the timeline with its
            # touched-object summary (the flow graph needs the vertex),
            # but never feed its partial records to pattern analysis.
            obs.quarantined = True
            obs.fault = event.fault
            obs.fine_enabled = False
            self._summarize_touched(event, obs)
        elif event.instrumented:
            self.counters.instrumented_launches += 1
            if self._fine_this_launch:
                self.counters.fine_launches += 1
            if telemetry.ENABLED:
                with telemetry.span(
                    "collector.launch",
                    kernel=event.kernel.name,
                    fine=self._fine_this_launch,
                ) as span:
                    self._process_records(event, obs)
                telemetry.histogram(
                    "repro_collector_launch_seconds",
                    "Wall time of the collector's per-launch pipeline.",
                ).observe(span.dur_s)
            else:
                self._process_records(event, obs)
        else:
            # No instrumentation: only the touched-object summary is
            # available (reads/writes without snapshots).
            self._summarize_touched(event, obs)
        self._sync_snapshot_counters()
        if self.memory_budget_bytes is not None:
            self._enforce_budget()
        self.analyzer.on_launch(obs)

    def _summarize_touched(
        self, event: KernelLaunchEvent, obs: LaunchObservation
    ) -> None:
        """Reads and whole-range writes from the launch's touched-object
        summary, for launches whose records are absent or unusable."""
        for alloc, nread, nwritten in event.touched:
            obj = self._ensure_tracked(alloc)
            if nread:
                obs.reads.append(ObjectRead(obj=obj, nbytes=nread))
            if nwritten:
                obs.writes.append(self._write_through_range(obj, nwritten))

    # -- graceful degradation ----------------------------------------------

    def _note_launch_faults(self, event: KernelLaunchEvent) -> None:
        """Fold a launch's fault markers into the health report."""
        health = self.health
        if health is None:
            return
        if event.dropped_records:
            health.dropped_records += event.dropped_records
            health.note(
                f"{event.dropped_records} accesses dropped in "
                f"{event.kernel.name!r}"
            )
            if telemetry.ENABLED:
                telemetry.counter(
                    "repro_resilience_dropped_records_total",
                    "Per-thread accesses lost by the measurement substrate.",
                ).inc(event.dropped_records)
        if event.faulted:
            health.quarantine_launch(event.kernel.name, event.fault)
            if telemetry.ENABLED:
                telemetry.counter(
                    "repro_resilience_quarantined_launches_total",
                    "Kernel launches quarantined after raising mid-flight.",
                ).inc()

    def _sanitize_records(self, records: List[AccessRecord]) -> List[AccessRecord]:
        """Trim torn records to their consistent prefix.

        A cut-short buffer flush leaves the parallel vectors of a record
        inconsistent (addresses/values shorter than thread/block ids, or
        vice versa).  Instead of crashing downstream, keep the prefix on
        which all vectors agree and count the repair."""
        repaired: List[AccessRecord] = []
        changed = False
        for record in records:
            n = min(
                record.count, len(record.thread_ids), len(record.block_ids)
            )
            if (
                n == record.count
                and len(record.thread_ids) == n
                and len(record.block_ids) == n
            ):
                repaired.append(record)
                continue
            changed = True
            repaired.append(record.take(slice(None, n)))
            if self.health is not None:
                self.health.repaired_records += 1
                self.health.note(
                    f"trimmed torn record (pc={record.pc}) in "
                    f"{record.kernel_name!r} to {n} accesses"
                )
            if telemetry.ENABLED:
                telemetry.counter(
                    "repro_resilience_repaired_records_total",
                    "Torn access records trimmed to a consistent prefix.",
                ).inc()
        return repaired if changed else records

    def _enforce_budget(self) -> None:
        """Descend one degradation-ladder rung if over the mirror budget."""
        if self._degradation_level >= 3:
            return
        mirror = self.snapshots.mirror_bytes
        if mirror <= self.memory_budget_bytes:
            return
        self._degradation_level += 1
        level = self._degradation_level
        if level == 1:
            # Rung 1: force coarse block sampling on future launches.
            self._forced_block_period = max(
                8, self.sampler.config.block_sampling_period * 8
            )
            action = "forced block sampling"
        elif level == 2:
            action = "disabled fine collection"
        else:
            evicted = 0
            for alloc_id in self.snapshots.tracked_ids():
                evicted += self.snapshots.evict(alloc_id)
            self._mirrors_evicted = True
            action = f"stopped instrumenting, evicted {evicted}B of mirrors"
        if self.health is not None:
            self.health.budget_fallbacks += 1
            self.health.degradation_level = max(
                self.health.degradation_level, level
            )
            self.health.note(
                f"memory budget: mirror {mirror}B over "
                f"{self.memory_budget_bytes}B -> {action}"
            )
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_resilience_budget_fallbacks_total",
                "Degradation-ladder escalations under memory pressure.",
            ).inc()
            telemetry.gauge(
                "repro_resilience_degradation_level",
                "Current rung on the collector's degradation ladder.",
            ).set(level)

    # -- the Section 6.1 pipeline --------------------------------------------------

    def _process_records(
        self, event: KernelLaunchEvent, obs: LaunchObservation
    ) -> None:
        records = event.records
        if self.health is not None:
            records = self._sanitize_records(records)
            event.records = records
        access_count = sum(r.count for r in records)
        self.counters.recorded_accesses += access_count
        flushes_before = self.buffer.flushes
        self.buffer.deposit(access_count)
        self.buffer.drain()
        self.counters.buffer_flushes = self.buffer.flushes

        # Interval pipeline, one pass: kind-tagged raw intervals ->
        # kind-preserving warp compaction -> the read and write
        # coverages, each from its starts and ends sorted apart, and the
        # combined coverage from their runs.
        sweep_span = (
            telemetry.tracer().begin("collector.sweep", records=len(records))
            if telemetry.ENABLED
            else None
        )
        raw, kinds = intervals_from_accesses_kinds(records)
        self.counters.raw_intervals += int(raw.shape[0])
        compacted, compacted_kinds = (
            warp_compact_kinds(raw, kinds) if raw.shape[0] else (raw, kinds)
        )
        self.counters.compacted_intervals += int(compacted.shape[0])
        merged = merge_parallel_kinds(compacted, compacted_kinds)
        self.counters.merged_intervals += int(merged.combined.shape[0])
        self.counters.interval_sweeps += 1
        if sweep_span is not None:
            sweep_span.end()
            telemetry.counter(
                "repro_collector_records_total",
                "Access records deposited into the profiling buffer.",
            ).inc(access_count)
            telemetry.counter(
                "repro_collector_interval_sweeps_total",
                "Single-pass compact+merge+route sweeps (one per "
                "instrumented launch).",
            ).inc()
            telemetry.counter(
                "repro_collector_merged_intervals_total",
                "Intervals surviving the kind-aware endpoint merge.",
            ).inc(int(merged.combined.shape[0]))
            telemetry.counter(
                "repro_collector_buffer_flushes_total",
                "Profiling-buffer flushes (GPU->CPU copies in the model).",
            ).inc(self.buffer.flushes - flushes_before)

        # Adopt any touched objects the collector has not seen (attach
        # after their allocation), so intervals resolve to them.
        for alloc, _nread, _nwritten in event.touched:
            self._ensure_tracked(alloc)

        binder_span = (
            telemetry.tracer().begin(
                "collector.binder", intervals=int(merged.combined.shape[0])
            )
            if telemetry.ENABLED
            else None
        )
        # A passive prefix records no reads (below), so it skips routing
        # them.
        routed = self.registry.route_intervals(
            merged.combined,
            merged.reads if self.analysis_active else _EMPTY_INTERVALS,
            merged.writes,
            device=event.device,
        )
        if binder_span is not None:
            binder_span.end()
        snapshot_span = (
            telemetry.tracer().begin("collector.snapshots", objects=len(routed))
            if telemetry.ENABLED
            else None
        )
        for alloc_id, route in routed.items():
            obj = self.registry.get(alloc_id)
            if obj is None or not self.snapshots.is_tracked(alloc_id):
                continue
            read_intervals = route.reads
            if read_intervals.size and self.analysis_active:
                obs.reads.append(
                    ObjectRead(
                        obj=obj,
                        nbytes=int(
                            (read_intervals[:, 1] - read_intervals[:, 0]).sum()
                        ),
                    )
                )
            write_intervals = route.writes
            if write_intervals.size == 0:
                continue
            plan = plan_copy(
                route.combined, obj.address, obj.size, self.copy_policy
            )
            # A passive prefix consumes only ``after`` and the digest:
            # the before-image copy exists for pattern analysis, which
            # the prefix does not run.
            before, after = self.snapshots.refresh_plan(
                obj, plan, want_before=self.analysis_active
            )
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
                    digest=self.snapshots.digest(obj.alloc_id),
                )
            )
        if snapshot_span is not None:
            snapshot_span.end()

        if self._fine_this_launch and self.analysis_active:
            if telemetry.ENABLED:
                with telemetry.span(
                    "collector.fine", kernel=event.kernel.name
                    if event.kernel is not None
                    else "?",
                ):
                    self._build_fine_views(event, obs)
            else:
                self._build_fine_views(event, obs)

    def _build_fine_views(
        self, event: KernelLaunchEvent, obs: LaunchObservation
    ) -> None:
        typed: Dict[Tuple[int, DType], List[AccessRecord]] = {}
        untyped: Dict[Tuple[int, int], List[AccessRecord]] = {}
        shared_obj = self._shared_pseudo_object(event)
        live_records = [r for r in event.records if r.count]
        if not live_records:
            return
        # Resolve every record's base address in one batched lookup.
        base_addresses = [int(r.addresses[0]) for r in live_records]
        resolved = self.registry.find_by_addresses(
            base_addresses, device=event.device
        )
        for record, address, obj in zip(
            live_records, base_addresses, resolved
        ):
            if obj is None and shared_obj is not None and any(
                start <= address < end
                for start, end, _ in event.shared_ranges
            ):
                # Shared memory is one data object (paper §5.1).
                obj = shared_obj
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

    @staticmethod
    def _shared_pseudo_object(event: KernelLaunchEvent) -> Optional[DataObject]:
        """The per-launch shared-memory pseudo data object, if any."""
        if not event.shared_ranges:
            return None
        start = min(r[0] for r in event.shared_ranges)
        end = max(r[1] for r in event.shared_ranges)
        dtype = event.shared_ranges[0][2]
        return DataObject(
            alloc_id=-1,
            label=f"{event.kernel.name}.<shared>",
            address=start,
            size=end - start,
            dtype=dtype,
            alloc_context=None,
            handle=None,
            device=event.device,
        )

    def _sync_snapshot_counters(self) -> None:
        self.counters.snapshot_bytes = self.snapshots.traffic.bytes_copied
        self.counters.snapshot_copies = self.snapshots.traffic.copy_invocations
        self.counters.binder_rebuilds = self.registry.index_rebuilds
        if telemetry.ENABLED:
            telemetry.gauge(
                "repro_collector_snapshot_bytes",
                "Cumulative snapshot bytes copied across the CPU mirror.",
            ).set(self.counters.snapshot_bytes)
            telemetry.gauge(
                "repro_collector_snapshot_copies",
                "Cumulative adaptive-copy invocations.",
            ).set(self.counters.snapshot_copies)
            telemetry.gauge(
                "repro_collector_binder_rebuilds",
                "Address-index (binder) cache rebuilds so far.",
            ).set(self.counters.binder_rebuilds)
            telemetry.gauge(
                "repro_collector_tracked_objects",
                "Live data objects in the collector's registry.",
            ).set(self.registry.live_count())
