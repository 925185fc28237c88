"""TraceReplayer — re-emits a recorded run through the listener bus.

The replayer reads a ``.vetrace`` file and plays its events on the same
:class:`~repro.gpu.runtime.EventBus` the live
:class:`~repro.gpu.runtime.GpuRuntime` publishes on: each event's
memory effect is applied, then ``on_api_end`` publishes it once, as on
the live bus.  Any bus consumer — the data collector, the GVProf
baseline, race/reuse analyzers — works over a replay unchanged, which
is the point: one recording, N analyses.

Device state is reconstructed exactly, without executing any kernel:

- allocations are re-created at their recorded ids/addresses over
  private zero-filled bytes (matching the zero-filled live arena);
- memcpy/memset effects are re-applied from recorded host data and the
  replayed device state, by the runtime's own
  :func:`~repro.gpu.runtime.apply_memcpy` and
  :func:`~repro.gpu.runtime.apply_memset`;
- kernel launches write back the recorded post-launch contents of every
  written allocation.

Instrumentation decisions are made by the *replay* listeners, through
the bus's own vote: the replayer polls ``instrument_kernel`` and
``sample_blocks`` per launch, then serves the recorded access records
filtered through the listeners' block mask (mirroring the live
per-record accounting).  Listeners can therefore narrow a maximal
recording — fine-pass kernel filters, sampling — but cannot widen it:
a launch recorded without records replays without records.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as telemetry
from repro.errors import TraceError
from repro.gpu.accesses import AccessKind
from repro.gpu.dtypes import DType
from repro.gpu.kernel import Kernel
from repro.gpu.memory import Allocation
from repro.gpu.runtime import (
    EventBus,
    FreeEvent,
    HostArray,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemcpyKind,
    MemsetEvent,
    apply_memcpy,
    apply_memset,
)
from repro.gpu.timing import KernelStats
from repro.trace_io.codec import (
    decode_access_record,
    decode_call_path,
    decode_kernel_table,
    dtype_from_name,
    record_arrays,
    stub_kernel,
)
from repro.trace_io.format import (
    EVENT_FREE,
    EVENT_LAUNCH,
    EVENT_MALLOC,
    EVENT_MEMCPY,
    EVENT_MEMSET,
    EVENT_NAMES,
    TraceReader,
)


_DTYPE_NAMES = frozenset(dtype.value for dtype in DType)
_ACCESS_KINDS = frozenset(kind.value for kind in AccessKind)
_MEMCPY_KINDS = frozenset(kind.value for kind in MemcpyKind)
_STAT_FIELDS = frozenset(field.name for field in dataclasses.fields(KernelStats))


def _is_int(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float


def _is_text(value) -> bool:
    return type(value) is str


def _is_dtype(value) -> bool:
    return type(value) is str and value in _DTYPE_NAMES


def _list_of(test):
    """A test that passes a JSON list whose items all pass ``test``."""
    return lambda value: type(value) is list and all(map(test, value))


def _is_call_frame(value) -> bool:
    return (
        type(value) is list
        and len(value) == 3
        and _is_text(value[0])
        and _is_text(value[1])
        and _is_int(value[2])
    )


_are_call_frames = _list_of(_is_call_frame)


def _is_shared_range(value) -> bool:
    return (
        type(value) is list
        and len(value) == 3
        and _is_int(value[0])
        and _is_int(value[1])
        and (value[2] is None or _is_dtype(value[2]))
    )


def _is_stats(value) -> bool:
    return value is None or (
        type(value) is dict
        and all(k in _STAT_FIELDS and _is_number(v) for k, v in value.items())
    )


#: What replay can use, as ``(test, description)``; None checks only
#: that the key is present (its container is checked on its own).
_INT = (_is_int, "an integer")
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_NUMBER = (_is_number, "a number")
_TEXT = (_is_text, "a string")
_FLAG = (lambda v: type(v) is bool, "a boolean")

#: Meta keys replay reads: those of every frame, then each event kind's.
_COMMON_KEYS = {
    "seq": _INT,
    "time_s": _NUMBER,
    "annotation": (_list_of(_is_text), "a list of strings"),
    "stream": _INT,
    "call_path": (
        lambda v: v is None or _are_call_frames(v),
        "null or a list of [function, filename, line]",
    ),
}
_EVENT_KEYS = {
    EVENT_MALLOC: {"alloc": None},
    EVENT_FREE: {"alloc": None},
    EVENT_MEMCPY: {
        "kind": (lambda v: _is_text(v) and v in _MEMCPY_KINDS, "a copy kind"),
        "nbytes": _COUNT,
        "dst": None,
        "src": None,
    },
    EVENT_MEMSET: {
        "alloc": None,
        "byte_value": (lambda v: type(v) is int and 0 <= v < 256, "a byte value"),
        "nbytes": _COUNT,
    },
    EVENT_LAUNCH: {
        "kernel": _TEXT,
        "grid": _COUNT,
        "block": _COUNT,
        "shared_ranges": (
            _list_of(_is_shared_range), "a list of [start, end, dtype]"
        ),
        "stats": (_is_stats, "null or an object of kernel counters"),
        "touched": None,
        "records": None,
        "post": None,
    },
}
#: The meta keys of each event kind, common ones included.
_FRAME_KEYS = {kind: {**_COMMON_KEYS, **keys} for kind, keys in _EVENT_KEYS.items()}
_ALLOC_KEYS = {
    "alloc_id": _INT,
    "address": (lambda v: type(v) is int and 0 <= v < 1 << 64, "a 64-bit address"),
    "size": _COUNT,
    "dtype": (_is_dtype, "a dtype name"),
    "label": _TEXT,
}
#: Keys checked only when present: v1 and v2 frames and descriptors
#: carry no ``device``.
_OPTIONAL_META_KEYS = {"device": _COUNT}
_OPTIONAL_ALLOC_KEYS = {"device": _COUNT, "freed": _FLAG}
_TOUCHED_KEYS = {"alloc": None, "nread": _COUNT, "nwritten": _COUNT}
_RECORD_KEYS = {
    "pc": _INT,
    "kind": (lambda v: _is_text(v) and v in _ACCESS_KINDS, "an access kind"),
    "dtype": (lambda v: v is None or _is_dtype(v), "null or a dtype name"),
    "kernel_name": _TEXT,
}
_POST_KEYS = {"alloc_id": _INT, "address": _INT}


class _Malformed(Exception):
    """A frame lacks a key its replay reads, or holds a value replay
    cannot use (the message names the key)."""


def _require(obj, keys: dict, where: str, optional: Optional[dict] = None) -> None:
    """Raise :class:`_Malformed` unless the JSON object ``obj`` has
    ``keys``, each passing its test, and those of ``optional`` it has
    pass theirs."""
    if not isinstance(obj, dict):
        raise _Malformed(f"{where!r} is not a JSON object")
    for key, check in keys.items():
        if key not in obj:
            raise _Malformed(f"lacks key {_path(where, key)!r}")
        if check is not None:
            _check_value(obj[key], check, where, key)
    if optional:
        for key, check in optional.items():
            if key in obj:
                _check_value(obj[key], check, where, key)


def _check_value(value, check, where: str, key: str) -> None:
    test, expected = check
    if not test(value):
        raise _Malformed(
            f"has key {_path(where, key)!r} = {value!r:.40}; expected {expected}"
        )


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _require_alloc(desc, where: str) -> None:
    """:func:`_require` for an allocation descriptor."""
    _require(desc, _ALLOC_KEYS, where, _OPTIONAL_ALLOC_KEYS)


def _listed(meta: dict, name: str) -> list:
    """``meta[name]``, which must be a JSON list."""
    entries = meta[name]
    if not isinstance(entries, list):
        raise _Malformed(f"{name!r} is not a JSON list")
    return entries


def _check_frame(kind: int, meta: dict, arrays: dict) -> None:
    """Raise :class:`_Malformed` if replaying the frame would read a meta
    key, descriptor key or array the frame lacks, or a frame-level value,
    allocation descriptor or record meta it cannot use.
    """
    _require(meta, _FRAME_KEYS[kind], "", _OPTIONAL_META_KEYS)
    if kind == EVENT_MEMCPY:
        if "host" in arrays:
            _require(meta, {"host_label": _TEXT}, "")
        elif (
            meta["kind"] == MemcpyKind.HOST_TO_DEVICE.value
            and meta["dst"] is not None
        ):
            raise _Malformed("lacks array 'host'")
        for name in ("dst", "src"):
            if meta[name] is not None:
                _require_alloc(meta[name], name)
    elif kind == EVENT_LAUNCH:
        for index, entry in enumerate(_listed(meta, "touched")):
            _require(entry, _TOUCHED_KEYS, f"touched[{index}]")
            _require_alloc(entry["alloc"], f"touched[{index}].alloc")
        for index, record in enumerate(_listed(meta, "records")):
            _require(record, _RECORD_KEYS, f"records[{index}]")
            for name in record_arrays(record, index):
                if name not in arrays:
                    raise _Malformed(f"lacks array {name!r}")
        for index, entry in enumerate(_listed(meta, "post")):
            _require(entry, _POST_KEYS, f"post[{index}]")
            if f"p{index}" not in arrays:
                raise _Malformed(f"lacks array 'p{index}'")
    else:
        _require_alloc(meta["alloc"], "alloc")


def _make_allocation(desc: dict, where: str) -> Allocation:
    """Materialize a replayed allocation from its wire descriptor (the
    frame's ``where``); a size the host cannot allocate is
    :class:`_Malformed`."""
    try:
        data = np.zeros(desc["size"], dtype=np.uint8)
    except (MemoryError, ValueError) as exc:
        raise _Malformed(
            f"has key {_path(where, 'size')!r} = {desc['size']}; cannot "
            f"allocate that many bytes to replay it ({exc})"
        ) from None
    return Allocation(
        alloc_id=desc["alloc_id"],
        address=desc["address"],
        size=desc["size"],
        dtype=dtype_from_name(desc["dtype"]),
        label=desc["label"],
        data=data,
        freed=bool(desc.get("freed", False)),
        # .get(): v1/v2 traces predate multi-device and are all device 0.
        device=int(desc.get("device", 0)),
    )


class TraceReplayer(EventBus):
    """Plays a recorded event stream to runtime listeners.

    With ``salvage=True`` a truncated recording is replayed up to its
    last complete frame instead of being refused; launches whose kernel
    metadata sank with the lost footer get name-only stub kernels.  The
    optional ``health`` (:class:`repro.resilience.HealthReport`) records
    what the salvage recovered.

    The optional ``fault_injector``
    (:class:`repro.resilience.FaultInjector`, wired by the facade when
    the configured :class:`~repro.resilience.FaultPlan` has replay
    scope) mangles the recorded record stream as launches are re-emitted
    — dropped suffixes and torn records, exactly as the live runtime
    injects them — so the degradation path can be chaos-tested without
    re-running any workload.
    """

    def __init__(
        self,
        path: str,
        salvage: bool = False,
        health=None,
        fault_injector=None,
    ):
        super().__init__()
        self._reader = TraceReader(path, salvage=salvage)
        self.path = path
        self.salvage = salvage
        self.health = health
        self.fault_injector = fault_injector
        self.header: dict = self._reader.header
        try:
            table = decode_kernel_table(self._reader.footer)
        except TraceError:
            self._reader.close()
            raise
        #: Kernel stubs from the trace footer (line maps + binaries,
        #: no executable body) — enough for offline type slicing.
        self.kernels: Dict[str, Kernel] = {kernel.name: kernel for kernel in table}
        if self._reader.truncated and health is not None:
            health.torn_trace = True
            health.trace_salvaged = True
            health.salvaged_bytes = self._reader.salvaged_bytes
            health.salvaged_events = self._reader.salvaged_events
            health.note(
                f"salvaged {self._reader.salvaged_events} events "
                f"({self._reader.salvaged_bytes} bytes) from truncated "
                f"trace {path!r}"
            )
        #: Live replayed allocations, keyed (alloc_id, address) — both,
        #: because the shared-memory arena numbers its ids independently
        #: of the global arena, so ids alone can collide.
        self._allocs: Dict[Tuple[int, int], Allocation] = {}
        #: The recording's frames, opened by the first :meth:`replay`.
        self._frames = None
        #: Events played so far: the index of the next one.
        self.events_replayed = 0

    # -- replay -------------------------------------------------------------

    def frame_index(self, decoded: bool = False) -> List[Tuple[int, int, int]]:
        """The recording's frame index (:meth:`TraceReader.frame_index`)."""
        return self._reader.frame_index(decoded=decoded)

    def replay(self, stop: Optional[int] = None) -> int:
        """Play the recording's next events, up to event ``stop`` or the
        end; returns how many were played.

        The replayer is a cursor over the recording: a second call
        continues where the first one stopped, and
        :attr:`events_replayed` is the index of the next event.
        """
        span = (
            telemetry.tracer().begin("trace.replay", path=self.path)
            if telemetry.ENABLED
            else None
        )
        if self._frames is None:
            self._frames = self._reader.events()
        first = self.events_replayed
        try:
            while stop is None or self.events_replayed < stop:
                frame = next(self._frames, None)
                if frame is None:
                    break
                self._replay_one(self.events_replayed, *frame)
                self.events_replayed += 1
        finally:
            # A frame that cannot be replayed must not leave the span
            # open: a resilient caller goes on to close its own spans.
            if span is not None:
                span.end()
        count = self.events_replayed - first
        if span is not None:
            telemetry.counter(
                "repro_trace_replay_events_total",
                "Recorded events re-emitted through the replay bus.",
            ).inc(count)
        return count

    def close(self) -> None:
        """Close the underlying trace file."""
        self._reader.close()

    def __enter__(self) -> "TraceReplayer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- event dispatch ------------------------------------------------------

    def _replay_one(self, index: int, kind: int, meta: dict, arrays: dict) -> None:
        """Replay event ``index``, refusing it before any listener sees
        it when it lacks a key its replay reads or holds a value replay
        cannot use.  The per-kind handler builds the event and applies
        its effect; the event is published here, at the recorded time."""
        if kind not in _FRAME_KEYS:
            raise TraceError(f"unknown event kind {kind} in {self.path!r}")
        try:
            _check_frame(kind, meta, arrays)
            # Each handler adopts the frame's allocations before it
            # applies the effect, so an unusable size is refused here.
            if kind == EVENT_MALLOC:
                event = self._replay_malloc(meta)
            elif kind == EVENT_FREE:
                event = self._replay_free(meta)
            elif kind == EVENT_MEMCPY:
                event = self._replay_memcpy(meta, arrays)
            elif kind == EVENT_MEMSET:
                event = self._replay_memset(meta)
            else:
                event = self._replay_launch(meta, arrays)
        except _Malformed as exc:
            raise TraceError(
                f"event {index} ({EVENT_NAMES[kind]}) in {self.path!r} {exc}"
            ) from None
        event.time_s = meta["time_s"]
        self._end(event)

    def _common(self, meta: dict) -> dict:
        return {
            "seq": meta["seq"],
            "call_path": decode_call_path(meta["call_path"]),
            "annotation": tuple(meta["annotation"]),
            "stream": meta["stream"],
            # .get(): pre-v3 traces carry no device key (device 0).
            "device": meta.get("device", 0),
        }

    def _resolve(self, desc: Optional[dict], where: str) -> Optional[Allocation]:
        """Find (or lazily adopt) the replayed allocation of a descriptor
        (the frame's ``where``).

        Descriptors of allocations never seen as MALLOC events — shared
        memory, or objects allocated before the recorder attached — get
        a transient allocation carrying the recorded identity, exactly
        as the live bus hands out handles the collector has not seen.
        """
        if desc is None:
            return None
        alloc = self._allocs.get((desc["alloc_id"], desc["address"]))
        if alloc is None:
            alloc = _make_allocation(desc, where)
        return alloc

    # -- per-event replay -----------------------------------------------------

    def _replay_malloc(self, meta: dict) -> MallocEvent:
        alloc = _make_allocation(meta["alloc"], "alloc")
        event = MallocEvent(alloc=alloc, **self._common(meta))
        self._allocs[(alloc.alloc_id, alloc.address)] = alloc
        return event

    def _replay_free(self, meta: dict) -> FreeEvent:
        alloc = self._resolve(meta["alloc"], "alloc")
        event = FreeEvent(alloc=alloc, **self._common(meta))
        alloc.freed = True
        self._allocs.pop((alloc.alloc_id, alloc.address), None)
        return event

    def _replay_memcpy(self, meta: dict, arrays: dict) -> MemcpyEvent:
        host = None
        if "host" in arrays:
            host = HostArray(arrays["host"], label=meta["host_label"])
        event = MemcpyEvent(
            kind=MemcpyKind(meta["kind"]),
            nbytes=meta["nbytes"],
            dst_alloc=self._resolve(meta["dst"], "dst"),
            src_alloc=self._resolve(meta["src"], "src"),
            host_array=host,
            **self._common(meta),
        )
        # D2H writes no device memory: the recorded host array already
        # holds the post-copy contents.
        apply_memcpy(event)
        return event

    def _replay_memset(self, meta: dict) -> MemsetEvent:
        event = MemsetEvent(
            alloc=self._resolve(meta["alloc"], "alloc"),
            byte_value=meta["byte_value"],
            nbytes=meta["nbytes"],
            **self._common(meta),
        )
        apply_memset(event)
        return event

    def _replay_launch(self, meta: dict, arrays: dict) -> KernelLaunchEvent:
        touched = [
            (
                self._resolve(entry["alloc"], f"touched[{index}].alloc"),
                entry["nread"],
                entry["nwritten"],
            )
            for index, entry in enumerate(meta["touched"])
        ]
        kernel = self.kernels.get(meta["kernel"])
        if kernel is None:
            if not self.salvage:
                raise TraceError(
                    f"kernel {meta['kernel']!r} missing from the trace's "
                    f"kernel table (unclosed recording?)"
                )
            # The kernel table sank with the torn footer: synthesize a
            # name-only stub so the launch still replays coarse-grained.
            kernel = stub_kernel(meta["kernel"])
            self.kernels[kernel.name] = kernel
            if self.health is not None:
                self.health.stub_kernels += 1
                self.health.note(
                    f"synthesized stub kernel for {kernel.name!r} "
                    f"(kernel table lost with torn footer)"
                )
            if telemetry.ENABLED:
                telemetry.counter(
                    "repro_resilience_stub_kernels_total",
                    "Stub kernels synthesized for salvaged traces.",
                ).inc()
        grid = meta["grid"]
        block = meta["block"]
        # The *replay* listeners decide instrumentation, exactly as on
        # the live bus; they can narrow the recording, never widen it.
        instrument, sampled = self._vote(kernel, grid, block)
        event = KernelLaunchEvent(
            kernel=kernel,
            grid=grid,
            block=block,
            instrumented=instrument,
            sampled_blocks=sampled,
            **self._common(meta),
        )
        # Restore post-launch device state from the recorded contents.
        for index, post in enumerate(meta["post"]):
            alloc = self._allocs.get((post["alloc_id"], post["address"]))
            if alloc is not None:
                alloc.write_all(arrays[f"p{index}"])
        event.shared_ranges = [
            (start, end, dtype_from_name(name))
            for start, end, name in meta["shared_ranges"]
        ]
        if instrument:
            event.records = self._filter_records(meta, arrays, sampled)
            if self.fault_injector is not None:
                # Replay-scoped chaos: drop/tear the recorded records as
                # the live runtime would, before listeners observe them.
                self.fault_injector.mangle_records(event)
        stats = meta["stats"]
        event.stats = None if stats is None else KernelStats(**stats)
        event.touched = touched
        return event

    def _filter_records(self, meta, arrays, sampled) -> list:
        """Recorded records, narrowed by the replay block mask.

        Mirrors the live per-record accounting: a record whose blocks
        all fall outside the mask is dropped; otherwise its per-thread
        vectors are sliced to the surviving threads.
        """
        records = []
        for index, record_meta in enumerate(meta["records"]):
            record = decode_access_record(
                record_meta, arrays, index, meta["block"]
            )
            n = record.count
            if len(record.block_ids) != n or len(record.thread_ids) != n:
                # Torn record serialized before repair: clip the id
                # vectors so the block mask below cannot misindex.
                record = record.take(slice(None, n))
            if sampled is not None:
                mask = sampled[record.block_ids]
                if not mask.any():
                    continue
                record = record.take(mask)
            records.append(record)
        return records
