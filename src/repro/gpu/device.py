"""The simulated GPU device.

A :class:`Device` owns a global memory arena and a small shared-memory
arena.  The paper treats the whole of shared memory as a single data
object (Section 5.1, "Since there is no explicit allocation function for
objects on GPU shared memory, ValueExpert treats the entire shared
memory as a single object"); the device mirrors that by exposing one
shared-memory allocation per kernel launch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import InvalidValueError
from repro.gpu.dtypes import DType
from repro.gpu.memory import Allocation, DeviceMemory

#: Base device address of the (per-launch) shared-memory arena.
SHARED_BASE = 0x7E0000000000


@dataclass(frozen=True)
class DeviceConfig:
    """Static device properties relevant to the simulation."""

    name: str = "sim-gpu"
    sm_count: int = 72
    warp_size: int = 32
    max_threads_per_block: int = 1024
    global_memory_bytes: int = 64 * 1024 * 1024
    shared_memory_bytes: int = 48 * 1024


class Device:
    """A simulated GPU: global memory, shared memory, and geometry limits.

    ``index`` is the device's ordinal within its :class:`GpuContext`
    (0 for a standalone device).  All devices share the same global
    address base, so the index travels with every allocation.
    """

    def __init__(
        self,
        config: DeviceConfig = DeviceConfig(),
        index: int = 0,
        next_alloc_id: Optional[Callable[[], int]] = None,
    ):
        self.config = config
        self.index = index
        self.memory = DeviceMemory(
            config.global_memory_bytes,
            device_index=index,
            next_id=next_alloc_id,
        )
        # Shared memory lives in its own arena with a disjoint address
        # base so its addresses never collide with global data objects.
        self._shared_arena = DeviceMemory(
            max(config.shared_memory_bytes, 4096),
            base=SHARED_BASE,
            device_index=index,
        )

    def validate_geometry(self, grid: int, block: int) -> None:
        """Reject malformed launch geometry."""
        if grid <= 0 or block <= 0:
            raise InvalidValueError(
                f"grid and block must be positive (got grid={grid}, block={block})"
            )
        if block > self.config.max_threads_per_block:
            raise InvalidValueError(
                f"block size {block} exceeds device limit "
                f"{self.config.max_threads_per_block}"
            )

    def shared_alloc(self, nbytes: int, dtype: DType, label: str) -> Allocation:
        """Carve a per-launch shared-memory object."""
        if nbytes > self.config.shared_memory_bytes:
            raise InvalidValueError(
                f"shared allocation of {nbytes} bytes exceeds device limit "
                f"{self.config.shared_memory_bytes}"
            )
        return self._shared_arena.malloc(nbytes, dtype=dtype, label=label)

    def shared_free(self, alloc: Allocation) -> None:
        """Release a per-launch shared-memory object."""
        self._shared_arena.free(alloc)


class GpuContext:
    """A set of simulated devices sharing one allocation-id space.

    Mirrors a multi-GPU node: every device has its own global arena (all
    based at the same device address, as real GPUs are), but allocation
    ids are drawn from one shared counter so a data object is uniquely
    identified by its id across the whole context.  The runtime's
    ``set_device``/``memcpy_p2p`` APIs operate over a context.
    """

    def __init__(self, devices: int = 1, config: DeviceConfig = DeviceConfig()):
        if devices <= 0:
            raise InvalidValueError("a GpuContext needs at least one device")
        self.config = config
        #: Draws the context's next allocation id.  A plain counter, not
        #: a bound method, so the devices holding it form no cycle with
        #: the context.
        self._next_alloc_id: Callable[[], int] = itertools.count(1).__next__
        self.devices: List[Device] = []
        for _ in range(devices):
            self._add_device()

    @classmethod
    def wrap(cls, device: Device) -> "GpuContext":
        """Wrap a pre-built device as device 0 of a single-device context.

        Back-compat path for ``GpuRuntime(device=...)`` callers: the
        device keeps its private allocation counter (single-device id
        sequences are unchanged), and any devices added later draw their
        ids from that same counter so ids stay context-unique.
        """
        context = cls.__new__(cls)
        context.config = device.config
        context._next_alloc_id = device.memory._next_id
        device.index = 0
        device.memory.device_index = 0
        context.devices = [device]
        return context

    def _add_device(self) -> Device:
        device = Device(
            self.config,
            index=len(self.devices),
            next_alloc_id=self._next_alloc_id,
        )
        self.devices.append(device)
        return device

    def ensure(self, count: int) -> None:
        """Grow the context to at least ``count`` devices."""
        while len(self.devices) < count:
            self._add_device()

    def device(self, index: int) -> Device:
        """The device at ``index``; raises on out-of-range."""
        if not 0 <= index < len(self.devices):
            raise InvalidValueError(
                f"invalid device ordinal {index} (context has "
                f"{len(self.devices)} devices)"
            )
        return self.devices[index]

    def __len__(self) -> int:
        return len(self.devices)
