"""CUDA-like runtime API over the simulated device.

The runtime exposes the GPU APIs ValueExpert intercepts (paper Section
4): memory allocation/free, the ``cudaMemcpy`` family, ``cudaMemset``,
and kernel launch.  Every API call publishes one event on an
:class:`EventBus`, after its effect; an API that raises publishes
nothing.  The data collector subscribes to the bus, exactly as the real
tool overloads the CUDA entry points.  Workload code only ever talks to
the runtime — it never knows whether a profiler is attached.  A trace
replay is the bus's other event source.

The runtime also serializes all work (the paper's collector "serializes
concurrent GPU streams") and accumulates modelled kernel/memory time
under the configured platform, which the speedup experiments read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as telemetry
from repro.errors import CollectionError, InvalidValueError, KernelLaunchError
from repro.gpu.accesses import AccessRecord
from repro.gpu.device import Device, GpuContext
from repro.gpu.dtypes import DType
from repro.gpu.kernel import Kernel, KernelContext
from repro.gpu.memory import Allocation
from repro.gpu.timing import KernelStats, Platform, RTX_2080_TI, TimeBreakdown
from repro.utils.callpath import CallPath, capture_call_path


class MemcpyKind(enum.Enum):
    """Direction of a memory copy, mirroring ``cudaMemcpyKind``."""

    HOST_TO_DEVICE = "h2d"
    DEVICE_TO_HOST = "d2h"
    DEVICE_TO_DEVICE = "d2d"
    #: Cross-device copy over the peer link (``cudaMemcpyPeer``).
    PEER_TO_PEER = "p2p"

    @property
    def over_pcie(self) -> bool:
        """Whether the copy crosses the host-device link."""
        return self not in (
            MemcpyKind.DEVICE_TO_DEVICE,
            MemcpyKind.PEER_TO_PEER,
        )


@dataclass
class HostArray:
    """A host-side array participating in CPU<->GPU transfers.

    Wrapping host buffers lets the collector see the *values* crossing
    PCIe, which is how the duplicate-values pattern spanning CPU and GPU
    (Darknet Inefficiency II) is detected.
    """

    data: np.ndarray
    label: str = "host"

    @property
    def nbytes(self) -> int:
        """Size of the host buffer in bytes."""
        return int(self.data.nbytes)

    @property
    def dtype(self) -> DType:
        """Element type as a device DType."""
        return DType.from_numpy(self.data.dtype)


# --------------------------------------------------------------------------
# API events
# --------------------------------------------------------------------------


@dataclass
class ApiEvent:
    """Base class for GPU API invocation events."""

    seq: int
    call_path: CallPath
    time_s: float = field(default=0.0)
    #: Nested operator scope active when the API was issued (see
    #: repro.gpu.annotations), outermost first.
    annotation: Tuple[str, ...] = ()
    #: CUDA stream the API was issued on (0 = the default stream).
    stream: int = 0
    #: Device the API executed on (the current device at issue time;
    #: for peer copies, the source device driving the transfer).
    device: int = 0

    @property
    def api_name(self) -> str:
        raise NotImplementedError


@dataclass
class MallocEvent(ApiEvent):
    alloc: Allocation = None

    @property
    def api_name(self) -> str:
        return "cudaMalloc"


@dataclass
class FreeEvent(ApiEvent):
    alloc: Allocation = None

    @property
    def api_name(self) -> str:
        return "cudaFree"


@dataclass
class MemcpyEvent(ApiEvent):
    kind: MemcpyKind = MemcpyKind.HOST_TO_DEVICE
    nbytes: int = 0
    dst_alloc: Optional[Allocation] = None
    src_alloc: Optional[Allocation] = None
    host_array: Optional[HostArray] = None

    @property
    def api_name(self) -> str:
        return "cudaMemcpy"


@dataclass
class MemsetEvent(ApiEvent):
    alloc: Allocation = None
    byte_value: int = 0
    nbytes: int = 0

    @property
    def api_name(self) -> str:
        return "cudaMemset"


@dataclass
class KernelLaunchEvent(ApiEvent):
    kernel: Kernel = None
    grid: int = 1
    block: int = 1
    #: Access records when instrumented, else empty.
    records: List[AccessRecord] = field(default_factory=list)
    stats: Optional[KernelStats] = None
    #: (Allocation, bytes_read, bytes_written) per touched object,
    #: available even without instrumentation.
    touched: List[Tuple[Allocation, int, int]] = field(default_factory=list)
    instrumented: bool = False
    #: Boolean per-block sampling mask used, if any.
    sampled_blocks: Optional[np.ndarray] = None
    #: (start, end, DType) of per-launch shared-memory objects; the
    #: paper treats the whole shared memory as one data object.
    shared_ranges: List[Tuple[int, int, DType]] = field(default_factory=list)
    #: The kernel raised mid-launch and was quarantined by a resilient
    #: runtime; ``fault`` carries the rendered exception.
    faulted: bool = False
    fault: str = ""
    #: Per-thread accesses reported lost by the measurement substrate
    #: (the hardware drop counter a real buffer overflow would bump).
    dropped_records: int = 0

    @property
    def api_name(self) -> str:
        return "cudaLaunchKernel"


class RuntimeListener:
    """Subscriber protocol for the :class:`EventBus`.

    Override the hooks of interest.  ``on_api_end`` fires once per API,
    after its effect (records and stats populated for launches); an API
    that raises publishes nothing.
    """

    #: When True, the runtime folds all streams onto one timeline while
    #: this listener is attached (the paper's collector "serializes
    #: concurrent GPU streams").
    serializes_streams: bool = False

    #: The event source :meth:`attach` subscribed this listener to.
    _source: Optional[EventBus] = None

    def attach(self, source: EventBus) -> None:
        """Subscribe to an event source: a runtime or a trace replay."""
        if self._source is not None:
            raise CollectionError(f"{type(self).__name__} is already attached")
        source.subscribe(self)
        self._source = source

    def detach(self) -> None:
        """Unsubscribe from the event source :meth:`attach` chose."""
        if self._source is None:
            raise CollectionError(f"{type(self).__name__} is not attached")
        self._source.unsubscribe(self)
        self._source = None

    def on_api_end(self, event: ApiEvent) -> None:  # pragma: no cover - default
        pass

    def instrument_kernel(self, kernel: Kernel, grid: int, block: int) -> bool:
        """Whether this listener wants fine-grained records for a launch."""
        return False

    def sample_blocks(self, kernel: Kernel, grid: int) -> Optional[np.ndarray]:
        """Optional boolean mask of blocks to record (block sampling)."""
        return None


@dataclass
class GpuEvent:
    """A CUDA-event-style stream marker (``cudaEventRecord``/``StreamWaitEvent``).

    Recording captures the issuing stream's completion clock; a stream
    that waits on the event cannot start new work before that timestamp.
    Events are a runtime-local synchronization primitive — they never
    cross the listener bus.
    """

    time_s: float = 0.0
    recorded: bool = False


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------


class EventBus:
    """The listener bus both event sources publish on: a live
    :class:`GpuRuntime` and a :class:`~repro.trace_io.TraceReplayer`."""

    def __init__(self):
        self.listeners: List[RuntimeListener] = []
        #: Attached listeners that requested stream serialization, in
        #: attach order — cached so the hot ``_commit_time`` path never
        #: re-walks the listener list (the flag is sampled at attach).
        self._serializing: List[RuntimeListener] = []

    def subscribe(self, listener: RuntimeListener) -> None:
        """Attach a profiler/collector to the API event bus."""
        if listener in self.listeners:
            raise InvalidValueError("listener already subscribed")
        self.listeners.append(listener)
        if getattr(listener, "serializes_streams", False):
            self._serializing.append(listener)

    def unsubscribe(self, listener: RuntimeListener) -> None:
        """Detach a listener from the API bus."""
        self.listeners.remove(listener)
        if listener in self._serializing:
            self._serializing.remove(listener)

    def _vote(
        self, kernel: Kernel, grid: int, block: int
    ) -> Tuple[bool, Optional[np.ndarray]]:
        """``(instrument, block_mask)`` of a launch: any listener may ask
        for records, and the first mask offered samples the blocks."""
        instrument = any(
            listener.instrument_kernel(kernel, grid, block)
            for listener in self.listeners
        )
        if instrument:
            for listener in self.listeners:
                mask = listener.sample_blocks(kernel, grid)
                if mask is not None:
                    return True, np.asarray(mask, dtype=bool)
        return instrument, None

    def _end(self, event: ApiEvent) -> None:
        for listener in self.listeners:
            listener.on_api_end(event)


def _check_copy_source(
    event: MemcpyEvent, needed: int, available: int, what: str
) -> None:
    """Refuse a copy that needs more host elements or source bytes than
    exist, before it writes anything."""
    if needed > available:
        raise InvalidValueError(
            f"{event.kind.value} copy of {event.nbytes} bytes needs {needed} "
            f"{what}; only {available} exist"
        )


def apply_memcpy(event: MemcpyEvent) -> None:
    """A copy's device effect on ``dst``'s first ``nbytes``: H2D casts
    the host values into them, D2D and P2P move raw bytes, D2H writes
    no device memory.  A copy that needs more host elements or source
    bytes than exist raises :class:`InvalidValueError`."""
    dst = event.dst_alloc
    if dst is None or event.kind is MemcpyKind.DEVICE_TO_HOST:
        return
    target = dst.prefix_view(event.nbytes // dst.dtype.itemsize)
    if event.kind is MemcpyKind.HOST_TO_DEVICE:
        values = event.host_array.data.reshape(-1)
        _check_copy_source(event, target.size, values.size, "host elements")
    else:
        src = event.src_alloc
        raw = src.prefix_view(event.nbytes // src.dtype.itemsize).view(np.uint8)
        _check_copy_source(event, target.nbytes, raw.size, "source bytes")
        values = raw[: target.nbytes].view(target.dtype)
    target[:] = values[: target.size]


def apply_memset(event: MemsetEvent) -> None:
    """A memset's device effect: the byte-wise fill."""
    alloc = event.alloc
    target = alloc.prefix_view(event.nbytes // alloc.dtype.itemsize)
    target.view(np.uint8)[:] = event.byte_value


class GpuRuntime(EventBus):
    """The CUDA-like API surface workloads program against.

    The runtime drives a :class:`~repro.gpu.device.GpuContext` of one or
    more devices; APIs execute on the *current* device (``set_device``),
    mirroring the CUDA runtime's per-thread current-device state.
    """

    def __init__(
        self,
        device: Optional[Device] = None,
        platform: Platform = RTX_2080_TI,
        context: Optional[GpuContext] = None,
    ):
        super().__init__()
        if context is not None:
            self.context = context
        elif device is not None:
            self.context = GpuContext.wrap(device)
        else:
            self.context = GpuContext()
        self.platform = platform
        #: Optional :class:`repro.resilience.FaultInjector` consulted at
        #: each interception point (None outside chaos runs).
        self.fault_injector = None
        #: When True, kernels that raise are quarantined (event.faulted)
        #: instead of propagating; the default keeps raise-through
        #: semantics so workloads see their own bugs.
        self.resilient = False
        self.times = TimeBreakdown()
        self._seq = 0
        self.api_events: int = 0
        self._current = 0
        #: Active semantic-annotation scope (repro.gpu.annotations).
        self._annotations: List[str] = []
        #: Per-(device, stream) completion clocks (concurrency model):
        #: ops on different streams/devices overlap; ops on one stream
        #: of one device serialize.
        self._stream_clock: Dict[Tuple[int, int], float] = {}

    # -- device management ---------------------------------------------------

    @property
    def device(self) -> Device:
        """The current device (``cudaGetDevice`` analogue)."""
        return self.context.devices[self._current]

    @property
    def current_device(self) -> int:
        """Ordinal of the current device."""
        return self._current

    @property
    def num_devices(self) -> int:
        """Number of devices in the runtime's context."""
        return len(self.context.devices)

    def set_device(self, index: int) -> None:
        """Make ``index`` the current device (``cudaSetDevice``)."""
        self.context.device(index)  # validates the ordinal
        self._current = index

    def ensure_devices(self, count: int) -> None:
        """Grow the context to at least ``count`` devices."""
        self.context.ensure(count)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- semantic annotations ------------------------------------------------

    def push_annotation(self, operator: str) -> None:
        """Enter an operator scope (use repro.gpu.annotations.annotate)."""
        self._annotations.append(operator)

    def pop_annotation(self) -> None:
        """Leave the innermost operator scope."""
        self._annotations.pop()

    @property
    def current_annotation(self) -> Tuple[str, ...]:
        """The active operator scope, outermost first."""
        return tuple(self._annotations)

    # -- stream timing -----------------------------------------------------

    @property
    def streams_serialized(self) -> bool:
        """Whether an attached profiler forces one timeline.

        Reads the cached attach-time sample (see :meth:`subscribe`) —
        the listener list is *not* re-walked here, keeping the
        per-API ``_commit_time`` path O(1).
        """
        return bool(self._serializing)

    def _clock_key(self, stream: int, device: Optional[int] = None) -> Tuple[int, int]:
        if self._serializing:
            return (0, 0)
        return (self._current if device is None else device, stream)

    def _commit_time(
        self, stream: int, seconds: float, device: Optional[int] = None
    ) -> None:
        key = self._clock_key(stream, device)
        self._stream_clock[key] = self._stream_clock.get(key, 0.0) + seconds

    def _kernel_seconds(self, seconds: float) -> float:
        """Modelled kernel time, perturbed by any latency fault plan."""
        if self.fault_injector is not None:
            return self.fault_injector.perturb_kernel_time(seconds)
        return seconds

    @property
    def makespan(self) -> float:
        """Modelled wall-clock: the longest (device, stream) timeline.
        With all work on one stream of one device (or a profiler
        attached) this equals ``times.total``; with concurrent streams
        or devices it is smaller."""
        if not self._stream_clock:
            return 0.0
        return max(self._stream_clock.values())

    @property
    def wall_clock_s(self) -> float:
        """Alias of :attr:`makespan` — the modelled wall-clock seconds."""
        return self.makespan

    # -- stream events -------------------------------------------------------

    def event_record(self, stream: int = 0) -> GpuEvent:
        """Record an event on ``stream`` of the current device."""
        marker = GpuEvent(
            time_s=self._stream_clock.get(self._clock_key(stream), 0.0),
            recorded=True,
        )
        return marker

    def event_wait(self, marker: GpuEvent, stream: int = 0) -> None:
        """Make ``stream`` of the current device wait for ``marker``.

        The waiting stream's clock jumps to at least the recorded
        timestamp, so later work on it cannot start before the work the
        event captured has finished (``cudaStreamWaitEvent``).
        """
        if not marker.recorded:
            raise InvalidValueError("cannot wait on an event never recorded")
        key = self._clock_key(stream)
        self._stream_clock[key] = max(
            self._stream_clock.get(key, 0.0), marker.time_s
        )

    def _end(self, event: ApiEvent) -> None:
        """Publish an API whose effect is done, in its operator scope."""
        event.annotation = tuple(self._annotations)
        self.api_events += 1
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_runtime_api_calls_total",
                "GPU API invocations crossing the runtime event bus.",
                labelnames=("api",),
            ).labels(api=event.api_name).inc()
            telemetry.counter(
                "repro_runtime_modelled_seconds_total",
                "Modelled device seconds accumulated per API.",
                labelnames=("api",),
            ).labels(api=event.api_name).inc(event.time_s)
            with telemetry.span(
                "runtime.dispatch", api=event.api_name, seq=event.seq
            ):
                super()._end(event)
            return
        super()._end(event)

    def _end_memory_api(
        self, event: ApiEvent, seconds: float, device: Optional[int] = None
    ) -> None:
        """Charge a copy or memset its modelled time, perturbed by any
        latency fault plan, and publish it."""
        if self.fault_injector is not None:
            seconds = self.fault_injector.perturb_memcpy_time(seconds)
        event.time_s = seconds
        self.times.add_memory(seconds)
        self._commit_time(event.stream, seconds, device)
        self._end(event)

    # -- memory APIs -----------------------------------------------------------

    def malloc(
        self, nelems: int, dtype: DType = DType.FLOAT32, label: str = ""
    ) -> Allocation:
        """Allocate ``nelems`` elements of ``dtype`` on the device."""
        if self.fault_injector is not None:
            self.fault_injector.on_malloc(nelems * dtype.itemsize, label)
        event = MallocEvent(
            seq=self._next_seq(),
            call_path=capture_call_path(),
            device=self._current,
        )
        alloc = self.device.memory.malloc(nelems * dtype.itemsize, dtype, label)
        event.alloc = alloc
        event.time_s = self.platform.malloc_time()
        self.times.add_memory(event.time_s)
        self._commit_time(event.stream, event.time_s)
        self._end(event)
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a device allocation."""
        event = FreeEvent(
            seq=self._next_seq(),
            call_path=capture_call_path(),
            alloc=alloc,
            device=self._current,
        )
        self.device.memory.free(alloc)
        self._end(event)

    def memcpy_h2d(self, dst: Allocation, src: HostArray, stream: int = 0) -> None:
        """``cudaMemcpyAsync(..., cudaMemcpyHostToDevice, stream)``."""
        nbytes = min(src.nbytes, dst.size)
        self._memcpy(
            MemcpyKind.HOST_TO_DEVICE, nbytes, dst, None, src, stream,
            self.platform.memcpy_time(nbytes, over_pcie=True),
        )

    def memcpy_d2h(self, dst: HostArray, src: Allocation, stream: int = 0) -> None:
        """``cudaMemcpyAsync(..., cudaMemcpyDeviceToHost, stream)``."""
        nbytes = min(dst.nbytes, src.size)
        self._memcpy(
            MemcpyKind.DEVICE_TO_HOST, nbytes, None, src, dst, stream,
            self.platform.memcpy_time(nbytes, over_pcie=True),
        )

    def memcpy_d2d(self, dst: Allocation, src: Allocation, stream: int = 0) -> None:
        """``cudaMemcpy(..., cudaMemcpyDeviceToDevice)``."""
        nbytes = min(src.size, dst.size)
        self._memcpy(
            MemcpyKind.DEVICE_TO_DEVICE, nbytes, dst, src, None, stream,
            self.platform.memcpy_time(nbytes, over_pcie=False),
        )

    def memcpy_p2p(self, dst: Allocation, src: Allocation, stream: int = 0) -> None:
        """``cudaMemcpyPeerAsync``: copy between two devices' memories.

        The event is attributed to the *source* device (the device
        driving the transfer over the peer link), so in the value-flow
        graph the copy vertex sits on the source device while the bytes
        land in an object on the destination device — a cross-device
        edge.
        """
        nbytes = min(src.size, dst.size)
        self._memcpy(
            MemcpyKind.PEER_TO_PEER, nbytes, dst, src, None, stream,
            self.platform.memcpy_p2p_time(nbytes), src.device,
        )

    def _memcpy(
        self,
        kind: MemcpyKind,
        nbytes: int,
        dst: Optional[Allocation],
        src: Optional[Allocation],
        host: Optional[HostArray],
        stream: int,
        seconds: float,
        device: Optional[int] = None,
    ) -> None:
        """Apply a copy, let any fault plan corrupt the side it wrote,
        charge ``seconds`` to ``device`` (default: the current one) and
        publish it."""
        event = MemcpyEvent(
            seq=self._next_seq(),
            call_path=capture_call_path(),
            kind=kind,
            nbytes=nbytes,
            dst_alloc=dst,
            src_alloc=src,
            host_array=host,
            stream=stream,
            device=self._current if device is None else device,
        )
        if kind is MemcpyKind.DEVICE_TO_HOST:
            # Only a live run writes the host array: a replay keeps the
            # recorded one, which holds any injected corruption.
            values = src.prefix_view(nbytes // src.dtype.itemsize)
            data = host.data
            _check_copy_source(event, values.size, data.size, "host elements")
            if data.flags.c_contiguous:
                data.reshape(-1)[: values.size] = values
            else:
                # reshape(-1) would be a copy: write in C order through
                # the array's own strides.
                data.flat[: values.size] = values
        else:
            apply_memcpy(event)
        if self.fault_injector is not None:
            # The written side: dst, else a D2H copy's host array.
            self.fault_injector.maybe_corrupt(alloc=dst, host=host)
        self._end_memory_api(event, seconds, device)

    def memset(self, alloc: Allocation, byte_value: int, nbytes: Optional[int] = None) -> None:
        """``cudaMemset``: byte-wise fill, like the real API."""
        if not 0 <= byte_value <= 255:
            raise InvalidValueError("memset value must be a byte (0..255)")
        nbytes = alloc.size if nbytes is None else nbytes
        event = MemsetEvent(
            seq=self._next_seq(),
            call_path=capture_call_path(),
            alloc=alloc,
            byte_value=byte_value,
            nbytes=nbytes,
            device=self._current,
        )
        apply_memset(event)
        self._end_memory_api(event, self.platform.memset_time(nbytes))

    # -- kernel launch -----------------------------------------------------------

    def launch(
        self,
        kernel_obj: Kernel,
        grid: int,
        block: int,
        *args,
        stream: int = 0,
    ) -> KernelLaunchEvent:
        """Launch a kernel over ``grid`` blocks of ``block`` threads.

        ``stream`` selects the CUDA stream; kernels on distinct streams
        overlap in the concurrency model (see :attr:`makespan`) unless
        a profiler that serializes streams is attached."""
        if not isinstance(kernel_obj, Kernel):
            raise KernelLaunchError(
                f"launch target must be a @kernel-decorated function, "
                f"got {type(kernel_obj).__name__}"
            )
        self.device.validate_geometry(grid, block)
        event = KernelLaunchEvent(
            seq=self._next_seq(),
            call_path=capture_call_path(),
            kernel=kernel_obj,
            grid=grid,
            block=block,
            stream=stream,
            device=self._current,
        )
        instrument, sampled = self._vote(kernel_obj, grid, block)
        event.instrumented = instrument
        event.sampled_blocks = sampled
        ctx = KernelContext(
            kernel_obj,
            grid,
            block,
            self.device,
            instrument=instrument,
            sampled_blocks=sampled,
        )
        kernel_span = (
            telemetry.tracer().begin(
                "runtime.kernel",
                kernel=kernel_obj.name,
                grid=grid,
                block=block,
                instrumented=instrument,
            )
            if telemetry.ENABLED
            else None
        )
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_kernel_enter(kernel_obj.name)
            kernel_obj(ctx, *args)
        except Exception as exc:
            if not self.resilient:
                raise
            # Quarantine: the launch stays on the timeline (flow graph,
            # touched summary) but is marked so analyzers exclude its
            # partial measurements from pattern mining.
            event.faulted = True
            event.fault = f"{type(exc).__name__}: {exc}"
        finally:
            if kernel_span is not None:
                kernel_span.end()
            event.shared_ranges = [
                (alloc.address, alloc.end, alloc.dtype)
                for alloc in ctx._shared_allocs
            ]
            ctx.release_shared()
        event.records = ctx.records
        event.stats = ctx.stats
        event.touched = [
            (alloc, nread, nwritten)
            for alloc, nread, nwritten in ctx.touched.values()
        ]
        if self.fault_injector is not None and event.records:
            self.fault_injector.mangle_records(event)
        event.time_s = self._kernel_seconds(self.platform.kernel_time(ctx.stats))
        self.times.add_kernel(kernel_obj.name, event.time_s)
        self._commit_time(event.stream, event.time_s)
        self._end(event)
        return event

    # -- convenience ------------------------------------------------------------

    def upload(
        self, data: np.ndarray, label: str = "", dtype: Optional[DType] = None
    ) -> Allocation:
        """Allocate and H2D-copy ``data`` in one step (cudaMakeArray-alike)."""
        data = np.asarray(data)
        dev_dtype = dtype or DType.from_numpy(data.dtype)
        alloc = self.malloc(data.size, dev_dtype, label)
        self.memcpy_h2d(alloc, HostArray(data.ravel(), label=label or "host"))
        return alloc

    def download(self, alloc: Allocation) -> np.ndarray:
        """D2H-copy an allocation into a fresh host array."""
        host = HostArray(
            np.zeros(alloc.nelems, dtype=alloc.dtype.np_dtype),
            label=f"{alloc.label}.host",
        )
        self.memcpy_d2h(host, alloc)
        return host.data
