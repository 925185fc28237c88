"""Event and kernel-table codecs for the trace layer.

Encoding turns a runtime :class:`~repro.gpu.runtime.ApiEvent` (observed
at ``on_api_end``, effects applied) into a ``(kind, meta, arrays)``
frame for :class:`~repro.trace_io.format.TraceWriter`.  Everything a
downstream :class:`~repro.gpu.runtime.RuntimeListener` can observe is
captured:

- allocation identity (id, address, size, dtype, label) per event;
- host-array contents crossing PCIe (post-effect);
- per-launch access records, touched-object summaries, kernel stats,
  shared-memory ranges, and the **full post-launch contents of every
  written allocation** — replay restores device state by writing those
  bytes back instead of re-executing the kernel, so snapshots taken
  over a replay are byte-identical to the live run;
- the kernel table (code bases, line maps, SASS-like binaries) in the
  footer, so offline access-type slicing works without importing any
  workload code.

From format v4 on, an access record's ``r<i>.val`` column is always
stored, and its length ``n`` is the record's count.  The other three
columns are left out when the launch implies them exactly, and the
record's meta says how to rebuild them:

- ``"tid": "arange"`` — thread ids are ``arange(n)``;
- ``"blk": "tid//block"`` — block ids are the thread ids floor-divided
  by the launch's ``block``;
- ``"addr": [first, step]`` — addresses are ``first + step * arange(n)``
  modulo 2**64 (a descending run has a step past 2**63).

:func:`delta_keys_for` names the arrays whose bytes mostly repeat an
earlier array's, for the writer's XOR delta: each post-launch snapshot,
and from v4 on each copy's host array that holds a whole allocation,
under the key of that allocation's identity.

Decoding of full events lives in :mod:`repro.trace_io.replayer`, which
owns the replay-side allocation state; this module only decodes the
stateless pieces (call paths, dtypes, access records, kernels).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.binary.isa import Instruction, Opcode, Register
from repro.binary.module import GpuFunction
from repro.errors import TraceError
from repro.gpu.accesses import AccessKind, AccessRecord
from repro.gpu.dtypes import DType
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import (
    ApiEvent,
    FreeEvent,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemcpyKind,
    MemsetEvent,
)
from repro.trace_io.format import (
    EVENT_FREE,
    EVENT_LAUNCH,
    EVENT_MALLOC,
    EVENT_MEMCPY,
    EVENT_MEMSET,
    VERSION,
    ArrayDict,
)
from repro.utils.callpath import CallPath, Frame

# -- stateless pieces --------------------------------------------------------


def encode_call_path(call_path: Optional[CallPath]) -> Optional[List]:
    """Call path as ``[[function, filename, lineno], ...]`` or None."""
    if call_path is None:
        return None
    return [[f.function, f.filename, f.lineno] for f in call_path.frames]


def decode_call_path(data: Optional[List]) -> Optional[CallPath]:
    """Inverse of :func:`encode_call_path`."""
    if data is None:
        return None
    return CallPath(
        tuple(Frame(function, filename, lineno) for function, filename, lineno in data)
    )


def dtype_name(dtype: Optional[DType]) -> Optional[str]:
    """A DType's stable wire name (its enum value), or None."""
    return None if dtype is None else dtype.value


def dtype_from_name(name: Optional[str]) -> Optional[DType]:
    """Inverse of :func:`dtype_name`."""
    return None if name is None else DType(name)


def alloc_descriptor(alloc) -> dict:
    """Identity of an allocation as seen on the event bus."""
    return {
        "alloc_id": int(alloc.alloc_id),
        "address": int(alloc.address),
        "size": int(alloc.size),
        "dtype": dtype_name(alloc.dtype),
        "label": alloc.label,
        "freed": bool(alloc.freed),
        "device": int(alloc.device),
    }


def _common_meta(event: ApiEvent) -> dict:
    return {
        "seq": int(event.seq),
        "time_s": float(event.time_s),
        "annotation": list(event.annotation),
        "stream": int(event.stream),
        "device": int(event.device),
        "call_path": encode_call_path(event.call_path),
    }


# -- implied record columns (format v4) ----------------------------------------

#: Record-meta markers of the v4 columns a launch implies.
IMPLIED_TIDS = "arange"
IMPLIED_BLOCKS = "tid//block"

_U64_LIMIT = 1 << 64
_I64_LIMIT = 1 << 63


def _ramp(first: int, step: int, n: int) -> np.ndarray:
    """``first + step * arange(n)`` modulo 2**64, as uint64."""
    run = np.arange(n, dtype=np.uint64)
    run *= np.uint64(step)
    run += np.uint64(first)
    return run


def _address_run(addresses: np.ndarray) -> Optional[List[int]]:
    """``[first, step]`` when ``addresses`` is one run."""
    n = len(addresses)
    first = int(addresses[0]) if n else 0
    step = (int(addresses[1]) - first) % _U64_LIMIT if n > 1 else 0
    # The last address rules out most scattered records cheaply.
    if n > 1 and int(addresses[-1]) != (first + step * (n - 1)) % _U64_LIMIT:
        return None
    if not np.array_equal(addresses, _ramp(first, step, n)):
        return None
    return [first, step]


# -- event encoding -----------------------------------------------------------


def encode_event(
    event: ApiEvent, version: int = VERSION
) -> Tuple[int, dict, ArrayDict]:
    """Encode one post-effect API event as a frame of format ``version``.

    The frame's arrays are views of the event's host and device memory,
    not copies: hand them to
    :meth:`~repro.trace_io.format.TraceWriter.write_event` (which copies
    each once) before the runtime's next API changes that memory.
    """
    meta = _common_meta(event)
    arrays: ArrayDict = {}
    if isinstance(event, MallocEvent):
        meta["alloc"] = alloc_descriptor(event.alloc)
        return EVENT_MALLOC, meta, arrays
    if isinstance(event, FreeEvent):
        meta["alloc"] = alloc_descriptor(event.alloc)
        return EVENT_FREE, meta, arrays
    if isinstance(event, MemcpyEvent):
        meta["kind"] = event.kind.value
        meta["nbytes"] = int(event.nbytes)
        meta["dst"] = (
            alloc_descriptor(event.dst_alloc) if event.dst_alloc is not None else None
        )
        meta["src"] = (
            alloc_descriptor(event.src_alloc) if event.src_alloc is not None else None
        )
        if event.host_array is not None:
            meta["host_label"] = event.host_array.label
            arrays["host"] = event.host_array.data
        return EVENT_MEMCPY, meta, arrays
    if isinstance(event, MemsetEvent):
        meta["alloc"] = alloc_descriptor(event.alloc)
        meta["byte_value"] = int(event.byte_value)
        meta["nbytes"] = int(event.nbytes)
        return EVENT_MEMSET, meta, arrays
    if isinstance(event, KernelLaunchEvent):
        _encode_launch(event, meta, arrays, version)
        return EVENT_LAUNCH, meta, arrays
    raise TraceError(f"cannot encode event type {type(event).__name__}")


def _encode_launch(
    event: KernelLaunchEvent, meta: dict, arrays: ArrayDict, version: int
) -> None:
    meta["kernel"] = event.kernel.name
    meta["grid"] = int(event.grid)
    meta["block"] = int(event.block)
    meta["instrumented"] = bool(event.instrumented)
    meta["shared_ranges"] = [
        [int(start), int(end), dtype_name(dtype)]
        for start, end, dtype in event.shared_ranges
    ]
    if event.sampled_blocks is not None:
        arrays["sampled"] = np.asarray(event.sampled_blocks, dtype=bool)
    stats = event.stats
    meta["stats"] = (
        None
        if stats is None
        else {
            "threads": int(stats.threads),
            "loads": int(stats.loads),
            "stores": int(stats.stores),
            "bytes_loaded": int(stats.bytes_loaded),
            "bytes_stored": int(stats.bytes_stored),
            "fp32_ops": float(stats.fp32_ops),
            "fp64_ops": float(stats.fp64_ops),
            "int_ops": float(stats.int_ops),
        }
    )
    meta["touched"] = [
        {
            "alloc": alloc_descriptor(alloc),
            "nread": int(nread),
            "nwritten": int(nwritten),
        }
        for alloc, nread, nwritten in event.touched
    ]
    meta["records"] = [
        _encode_record(record, index, int(event.block), version, arrays)
        for index, record in enumerate(event.records)
    ]
    # Post-launch device state of every written (still-live) allocation:
    # replay restores state by writing these back, no kernel execution.
    post = []
    for alloc, _nread, nwritten in event.touched:
        if nwritten <= 0 or alloc.freed:
            continue
        post.append(
            {"alloc_id": int(alloc.alloc_id), "address": int(alloc.address)}
        )
        arrays[f"p{len(post) - 1}"] = alloc.prefix_view(alloc.nelems)
    meta["post"] = post


def _encode_record(
    record: AccessRecord, index: int, block: int, version: int, arrays: ArrayDict
) -> dict:
    """One access record's meta; its stored columns go into ``arrays``.

    From v4 on, the columns the launch implies are left out and marked
    in the meta instead (see the module docstring).
    """
    record_meta = {
        "pc": int(record.pc),
        "kind": record.kind.value,
        "dtype": dtype_name(record.dtype),
        "kernel_name": record.kernel_name,
    }
    columns = {
        "addr": np.asarray(record.addresses, dtype=np.uint64),
        "val": np.asarray(record.values),
        "tid": np.asarray(record.thread_ids, dtype=np.int64),
        "blk": np.asarray(record.block_ids, dtype=np.int64),
    }
    implied = _implied_columns(columns, block) if version >= 4 else {}
    record_meta.update(implied)
    for column, array in columns.items():
        if column not in implied:
            arrays[f"r{index}.{column}"] = array
    return record_meta


def _implied_columns(columns: ArrayDict, block: int) -> dict:
    """Markers for the columns a record's launch implies exactly."""
    n = len(columns["val"])
    implied = {}
    run = _address_run(columns["addr"])
    if run is not None:
        implied["addr"] = run
    if np.array_equal(columns["tid"], np.arange(n, dtype=np.int64)):
        implied["tid"] = IMPLIED_TIDS
    if block > 0 and np.array_equal(columns["blk"], columns["tid"] // block):
        implied["blk"] = IMPLIED_BLOCKS
    return implied


def _alloc_key(desc: dict) -> str:
    """The delta key of an allocation's contents."""
    return f"post:{desc['alloc_id']}:{desc['address']}"


def _holds_whole(host: np.ndarray, desc: dict) -> bool:
    """Whether a copy's host array has exactly the bytes of the whole
    allocation ``desc``: same dtype, and the snapshot's byte length."""
    dtype = DType(desc["dtype"]).np_dtype
    snapshot = desc["size"] // dtype.itemsize * dtype.itemsize
    return host.dtype == dtype and host.nbytes == snapshot


def delta_keys_for(
    kind: int, meta: dict, arrays: ArrayDict, version: int = VERSION
) -> Dict[str, str]:
    """Delta keys for a frame's arrays, by array name.

    Post-launch snapshots (``p<N>`` arrays) of the same allocation
    repeat with few changed bytes launch to launch, so they are keyed
    by allocation identity: a v2 writer XOR-encodes each against the
    previous array written under that key (see
    :meth:`~repro.trace_io.format.TraceWriter.write_event`).

    From v4 on, a copy's ``host`` array joins the same chain when it
    holds the whole allocation on the device side (the destination of
    an H2D copy, the source of a D2H one), so a re-upload of unchanged
    bytes is stored as zeros.  A partial or casting copy stays unkeyed:
    its bytes are not the allocation's, and keying them would reset the
    base the allocation's next snapshot is coded against.
    """
    if kind == EVENT_LAUNCH:
        return {
            f"p{index}": _alloc_key(entry)
            for index, entry in enumerate(meta.get("post", ()))
        }
    if kind == EVENT_MEMCPY and version >= 4 and "host" in arrays:
        to_host = meta["kind"] == MemcpyKind.DEVICE_TO_HOST.value
        desc = meta["src"] if to_host else meta["dst"]
        if desc is not None and _holds_whole(arrays["host"], desc):
            return {"host": _alloc_key(desc)}
    return {}


def released_delta_keys(kind: int, meta: dict) -> List[str]:
    """Delta keys a frame retires (freed allocations snapshot no more)."""
    if kind != EVENT_FREE:
        return []
    return [_alloc_key(meta["alloc"])]


def record_arrays(record_meta: dict, index: int) -> List[str]:
    """Names of the arrays record ``index`` of a launch frame must carry.

    A v4 record names the columns its launch implies in its meta; those
    have no array.
    """
    return [
        f"r{index}.{column}"
        for column in ("addr", "val", "tid", "blk")
        if column not in record_meta
    ]


def _record_length(values: np.ndarray, index: int) -> int:
    """The count of a record with implied columns: ``len(r<i>.val)``."""
    if values.ndim != 1:
        raise TraceError(
            f"record {index}: r{index}.val must be one-dimensional, got "
            f"shape {list(values.shape)}"
        )
    return values.shape[0]


def decode_access_record(
    record_meta: dict, arrays: ArrayDict, index: int, block: Optional[int] = None
) -> AccessRecord:
    """Rebuild one access record from its frame slice.

    ``block`` is the launch's block size; a v4 record whose block ids
    are implied needs it.  Columns the record's meta marks implied are
    rebuilt from ``len(r<i>.val)``; an implied column with a malformed
    marker is a :class:`TraceError`.
    """
    values = arrays[f"r{index}.val"]
    if "addr" in record_meta:
        run = record_meta["addr"]
        if not (
            type(run) is list
            and len(run) == 2
            and all(type(v) is int and 0 <= v < _U64_LIMIT for v in run)
        ):
            raise TraceError(
                f"record {index}: implied addresses need [first, step] "
                f"in [0, 2**64), got {run!r}"
            )
        addresses = _ramp(run[0], run[1], _record_length(values, index))
    else:
        addresses = arrays[f"r{index}.addr"]
    if "tid" in record_meta:
        if record_meta["tid"] != IMPLIED_TIDS:
            raise TraceError(
                f"record {index}: unknown thread-id marker "
                f"{record_meta['tid']!r}"
            )
        thread_ids = np.arange(_record_length(values, index), dtype=np.int64)
    else:
        thread_ids = arrays[f"r{index}.tid"]
    if "blk" in record_meta:
        if record_meta["blk"] != IMPLIED_BLOCKS:
            raise TraceError(
                f"record {index}: unknown block-id marker "
                f"{record_meta['blk']!r}"
            )
        if type(block) is not int or not 0 < block < _I64_LIMIT:
            raise TraceError(
                f"record {index}: implied block ids need a positive int "
                f"launch block, got {block!r}"
            )
        if thread_ids.dtype != np.int64 or thread_ids.ndim != 1:
            raise TraceError(
                f"record {index}: implied block ids need int64 thread ids"
            )
        block_ids = thread_ids // block
    else:
        block_ids = arrays[f"r{index}.blk"]
    return AccessRecord(
        pc=record_meta["pc"],
        kind=AccessKind(record_meta["kind"]),
        addresses=addresses,
        values=values,
        dtype=dtype_from_name(record_meta["dtype"]),
        kernel_name=record_meta["kernel_name"],
        thread_ids=thread_ids,
        block_ids=block_ids,
    )


# -- kernel table -------------------------------------------------------------


def encode_kernel(kernel: Kernel) -> dict:
    """Kernel metadata for the trace footer (no entry function)."""
    return {
        "name": kernel.name,
        "code_base": int(kernel.code_base),
        "line_map": [
            [int(pc), filename, int(lineno)]
            for pc, (filename, lineno) in sorted(kernel.line_map.items())
        ],
        "binary": (
            None if kernel.binary is None else encode_function(kernel.binary)
        ),
    }


def encode_function(function: GpuFunction) -> dict:
    """A SASS-like binary function, instruction by instruction."""
    return {
        "name": function.name,
        "line_map": [
            [int(pc), filename, int(lineno)]
            for pc, (filename, lineno) in sorted(function.line_map.items())
        ],
        "instructions": [
            {
                "pc": int(instr.pc),
                "opcode": instr.opcode.value,
                "dests": [r.index for r in instr.dests],
                "srcs": [r.index for r in instr.srcs],
                "width_bits": instr.width_bits,
                "src_type": dtype_name(instr.src_type),
                "dst_type": dtype_name(instr.dst_type),
                "addr": None if instr.addr is None else instr.addr.index,
                "pred": None if instr.pred is None else instr.pred.index,
                "target": instr.target,
            }
            for instr in function.instructions
        ],
    }


def _stub_entry(*_args, **_kwargs) -> None:
    raise TraceError(
        "replayed kernels carry no entry function; launches are "
        "reconstructed from recorded access records and post-state"
    )


def stub_kernel(name: str) -> Kernel:
    """A minimal kernel stub for salvaged traces.

    A torn recording loses its kernel-table footer, so launches must be
    replayed against a name-only stub: no line map, no binary.  Offline
    type slicing and source attribution degrade gracefully (they skip
    kernels without binaries); coarse analysis is unaffected.
    """
    kernel = Kernel(name=name, fn=_stub_entry, code_base=0, line_map={})
    kernel._pc_table = {}
    return kernel


def decode_kernel_table(footer: dict) -> List[Kernel]:
    """Kernel stubs from a trace footer's kernel table (empty on a
    salvaged trace); a table that is not a list is a :class:`TraceError`."""
    table = footer.get("kernels") or []
    if not isinstance(table, list):
        raise TraceError(
            f"trace footer kernel table is a {type(table).__name__}, "
            f"not a list"
        )
    return [decode_kernel(data) for data in table]


def decode_kernel(data: dict) -> Kernel:
    """Rebuild a kernel stub: metadata and binary, no executable body.
    A malformed entry is a :class:`TraceError`."""
    try:
        if not isinstance(data["name"], str):
            raise TypeError(f"kernel name {data['name']!r} is not a string")
        line_map: Dict[int, Tuple[str, int]] = {
            pc: (filename, lineno) for pc, filename, lineno in data["line_map"]
        }
        kernel = Kernel(
            name=data["name"],
            fn=_stub_entry,
            code_base=data["code_base"],
            line_map=line_map,
        )
        kernel._pc_table = {site: pc for pc, site in line_map.items()}
        if data["binary"] is not None:
            kernel.binary = decode_function(data["binary"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise TraceError(
            f"malformed kernel table entry: {type(exc).__name__}: {exc}"
        ) from None
    return kernel


def _opt_register(index) -> "Register | None":
    """A register from an optional encoded index."""
    return None if index is None else Register(index)


def decode_function(data: dict) -> GpuFunction:
    """Inverse of :func:`encode_function`."""
    return GpuFunction(
        name=data["name"],
        instructions=[
            Instruction(
                pc=d["pc"],
                opcode=Opcode(d["opcode"]),
                dests=tuple(Register(i) for i in d["dests"]),
                srcs=tuple(Register(i) for i in d["srcs"]),
                width_bits=d["width_bits"],
                src_type=dtype_from_name(d["src_type"]),
                dst_type=dtype_from_name(d["dst_type"]),
                # .get(): traces recorded before the control-flow
                # extension lack these keys.
                addr=_opt_register(d.get("addr")),
                pred=_opt_register(d.get("pred")),
                target=d.get("target"),
            )
            for d in data["instructions"]
        ],
        line_map={
            pc: (filename, lineno) for pc, filename, lineno in data["line_map"]
        },
    )
