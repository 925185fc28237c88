"""Simulated GPU global memory and allocator.

Data objects in ValueExpert are identified by their allocation: the tool
records each allocation's context, starting address, and size (paper
Section 5.1).  This module provides a byte-addressed memory with a
first-fit free-list allocator so allocations have genuine, distinct
addresses, and loads/stores have real effects on stored bytes.

Addresses start at a large non-zero base (as on real devices) so address
zero never aliases a valid object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidAddressError, InvalidValueError, OutOfMemoryError
from repro.gpu.dtypes import DType

#: Base device address of the global-memory arena.
GLOBAL_BASE = 0x7F0000000000

#: Allocation granularity, mirroring cudaMalloc's 256-byte alignment.
ALIGNMENT = 256


def _align_up(size: int, alignment: int = ALIGNMENT) -> int:
    return (size + alignment - 1) // alignment * alignment


@dataclass
class Allocation:
    """A live device allocation — ValueExpert's *data object*.

    The allocation exposes typed element views so workloads can treat it
    as an array of its element dtype while the profiler sees raw bytes
    and addresses.  ``data`` is its own uint8 view of the bytes that
    back it; the allocation holds no reference to its allocator, so a
    dropped arena is freed without waiting for the cyclic collector.
    """

    alloc_id: int
    address: int
    size: int
    dtype: DType
    label: str
    data: np.ndarray = field(repr=False, compare=False)
    freed: bool = False
    #: Index of the device whose arena holds this allocation.  All
    #: devices share the same address base, so (device, address) — not
    #: address alone — identifies a byte of global memory.
    device: int = 0

    @property
    def nelems(self) -> int:
        """Number of dtype-sized elements that fit in the allocation."""
        return self.size // self.dtype.itemsize

    @property
    def end(self) -> int:
        """One past the last byte address."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this allocation."""
        return self.address <= address < self.end

    def element_address(self, index: int) -> int:
        """Byte address of element ``index``."""
        return self.address + index * self.dtype.itemsize

    # -- typed element access (used by kernels and memcpy) ---------------

    def read(self, indices: np.ndarray) -> np.ndarray:
        """Read elements at ``indices`` (element offsets, not bytes)."""
        self._check_live()
        view = self._typed_view()
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.nelems):
            raise InvalidAddressError(
                f"element index out of range for {self.label!r} "
                f"(n={self.nelems}, got [{idx.min()}, {idx.max()}])"
            )
        return view[idx]

    def write(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` to elements at ``indices``."""
        self._check_live()
        view = self._typed_view()
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.nelems):
            raise InvalidAddressError(
                f"element index out of range for {self.label!r} "
                f"(n={self.nelems}, got [{idx.min()}, {idx.max()}])"
            )
        view[idx] = np.asarray(values, dtype=self.dtype.np_dtype)

    def read_all(self) -> np.ndarray:
        """Copy out the whole allocation as a typed array."""
        self._check_live()
        return self._typed_view().copy()

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Copy out elements ``[lo, hi)`` as a typed array.

        The snapshot store's partial refresh uses this so a small copy
        plan moves only the planned elements, not the whole object.
        """
        self._check_live()
        lo = max(0, lo)
        hi = min(self.nelems, hi)
        if hi <= lo:
            return np.empty(0, dtype=self.dtype.np_dtype)
        return self._typed_view()[lo:hi].copy()

    def prefix_view(self, count: int) -> np.ndarray:
        """The live typed view of elements ``[0, count)``: the slice a
        memcpy or memset reads or writes.  A count that is not an
        integer in ``[0, nelems]`` raises :class:`InvalidAddressError`.
        """
        self._check_live()
        in_range = isinstance(count, (int, np.integer)) and 0 <= count <= self.nelems
        if not in_range:
            raise InvalidAddressError(
                f"element prefix [0, {count}) out of range for "
                f"{self.label!r} (n={self.nelems})"
            )
        return self._typed_view()[:count]

    def write_all(self, values: np.ndarray) -> None:
        """Overwrite the whole allocation from a typed array."""
        self._check_live()
        data = np.asarray(values, dtype=self.dtype.np_dtype).ravel()
        if data.size != self.nelems:
            raise InvalidValueError(
                f"write_all size mismatch for {self.label!r}: "
                f"expected {self.nelems} elements, got {data.size}"
            )
        view = self._typed_view()
        view[:] = data

    def raw_bytes(self, start: int = 0, length: Optional[int] = None) -> bytes:
        """Raw byte contents (for hashing / snapshots)."""
        self._check_live()
        length = self.size - start if length is None else length
        return bytes(self.data[start : start + length])

    def _typed_view(self) -> np.ndarray:
        usable = self.nelems * self.dtype.itemsize
        return self.data[:usable].view(self.dtype.np_dtype)

    def _check_live(self) -> None:
        if self.freed:
            raise InvalidAddressError(f"use after free of {self.label!r}")


class DeviceMemory:
    """Byte-addressed global memory with a first-fit free-list allocator.

    ``base`` sets the arena's base device address; distinct memory
    spaces (global vs shared) use distinct bases so an address resolves
    to at most one space.  Every device's global arena shares the same
    base, so ``device_index`` disambiguates otherwise-colliding
    addresses.  A :class:`~repro.gpu.device.GpuContext` injects a shared
    ``next_id`` counter so allocation ids stay unique across its
    devices; standalone arenas keep a private counter.
    """

    def __init__(
        self,
        capacity: int = 64 * 1024 * 1024,
        base: int = GLOBAL_BASE,
        device_index: int = 0,
        next_id: Optional[Callable[[], int]] = None,
    ):
        if capacity <= 0:
            raise InvalidValueError("device memory capacity must be positive")
        self.base = base
        self.capacity = _align_up(capacity)
        self.device_index = device_index
        self._arena = np.zeros(self.capacity, dtype=np.uint8)
        # Free list of (offset, size) holes, sorted by offset.
        self._free: List[Tuple[int, int]] = [(0, self.capacity)]
        self._live: Dict[int, Allocation] = {}
        # A plain counter: a bound method of this object would make the
        # object, and so its arena, part of a reference cycle.
        self._next_id = next_id or itertools.count(1).__next__

    # -- allocation -------------------------------------------------------

    def malloc(self, size: int, dtype: DType = DType.UINT8, label: str = "") -> Allocation:
        """Allocate ``size`` bytes; returns an :class:`Allocation`.

        The arena backing a fresh allocation is zero-filled, matching the
        practical behaviour most workloads rely on, but ValueExpert never
        assumes it — snapshots are taken explicitly.
        """
        if size <= 0:
            raise InvalidValueError("allocation size must be positive")
        need = _align_up(size)
        for pos, (offset, hole) in enumerate(self._free):
            if hole >= need:
                break
        else:
            raise OutOfMemoryError(
                f"cannot allocate {size} bytes (capacity {self.capacity}, "
                f"in use {self.bytes_in_use})"
            )
        if hole == need:
            del self._free[pos]
        else:
            self._free[pos] = (offset + need, hole - need)
        self._arena[offset : offset + need] = 0
        alloc_id = self._next_id()
        alloc = Allocation(
            alloc_id=alloc_id,
            address=self.base + offset,
            size=need,
            dtype=dtype,
            label=label or f"alloc{alloc_id}",
            data=self._arena[offset : offset + need],
            device=self.device_index,
        )
        self._live[alloc.address] = alloc
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release an allocation; coalesces adjacent holes."""
        if alloc.freed or alloc.address not in self._live:
            raise InvalidAddressError(f"double free of {alloc.label!r}")
        del self._live[alloc.address]
        alloc.freed = True
        offset = alloc.address - self.base
        self._free.append((offset, alloc.size))
        self._free.sort()
        self._coalesce()

    def _coalesce(self) -> None:
        merged: List[Tuple[int, int]] = []
        for offset, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                prev_offset, prev_size = merged[-1]
                merged[-1] = (prev_offset, prev_size + size)
            else:
                merged.append((offset, size))
        self._free = merged

    # -- lookup ------------------------------------------------------------

    def find(self, address: int) -> Optional[Allocation]:
        """Find the live allocation containing ``address``, if any."""
        for alloc in self._live.values():
            if alloc.contains(address):
                return alloc
        return None

    @property
    def live_allocations(self) -> List[Allocation]:
        """Live allocations, in address order."""
        return sorted(self._live.values(), key=lambda a: a.address)

    @property
    def bytes_in_use(self) -> int:
        """Total bytes held by live allocations."""
        return sum(a.size for a in self._live.values())

    @property
    def bytes_free(self) -> int:
        """Total bytes in holes."""
        return sum(size for _, size in self._free)
