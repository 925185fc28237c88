"""Access records — the unit of fine-grained measurement.

The Sanitizer API callback in the paper yields, per executed memory
instruction and per thread: the instruction's virtual PC, the effective
address, the access size, and the raw value.  The simulated kernel
context emits the same information, but batched: one
:class:`AccessRecord` per executed (vectorized) instruction, carrying the
per-thread address and value vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.dtypes import DType


class AccessKind(enum.Enum):
    """Whether a memory instruction loads or stores."""

    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class AccessRecord:
    """One executed memory instruction, across all active threads.

    Attributes
    ----------
    pc:
        Virtual program counter of the instruction.  In this reproduction
        the PC is derived from the kernel's Python source line, which
        doubles as the line-mapping information the offline analyzer
        reads from debug sections.
    kind:
        Load or store.
    addresses:
        ``uint64`` vector of effective byte addresses, one per thread.
    values:
        Vector of the raw values loaded/stored, one per thread, in the
        instruction's declared numpy dtype (the *raw bits*; the online
        analyzer may reinterpret them using the inferred access type).
    dtype:
        Declared access type of the instruction.  ``None`` models an
        instruction whose type the collector could not determine at
        measurement time; the offline analyzer then infers it by
        bidirectional slicing (paper Section 5.1).
    kernel_name:
        Name of the kernel that executed the instruction.
    thread_ids:
        Global thread ids of the active threads (parallel to
        ``addresses``).
    block_ids:
        Block id of each active thread (parallel to ``addresses``);
        used by block sampling.
    """

    pc: int
    kind: AccessKind
    addresses: np.ndarray
    values: np.ndarray
    dtype: Optional[DType]
    kernel_name: str
    thread_ids: np.ndarray
    block_ids: np.ndarray

    def __post_init__(self) -> None:
        if len(self.addresses) != len(self.values):
            raise ValueError(
                f"addresses ({len(self.addresses)}) and values "
                f"({len(self.values)}) must be parallel vectors"
            )

    @property
    def count(self) -> int:
        """Number of per-thread accesses in this record."""
        return len(self.addresses)

    @property
    def itemsize(self) -> int:
        """Bytes accessed per thread."""
        return int(self.values.dtype.itemsize)

    @property
    def bytes_accessed(self) -> int:
        """Total bytes touched by this instruction across threads."""
        return self.count * self.itemsize

    def take(self, index) -> "AccessRecord":
        """This record restricted to ``index`` — a slice or a boolean
        mask — applied alike to every per-thread vector."""
        return AccessRecord(
            pc=self.pc,
            kind=self.kind,
            addresses=self.addresses[index],
            values=self.values[index],
            dtype=self.dtype,
            kernel_name=self.kernel_name,
            thread_ids=np.asarray(self.thread_ids)[index],
            block_ids=np.asarray(self.block_ids)[index],
        )

    def intervals(self) -> np.ndarray:
        """Return per-thread ``[start, end)`` byte intervals, shape (n, 2)."""
        starts = self.addresses.astype(np.uint64)
        ends = starts + np.uint64(self.itemsize)
        return np.stack([starts, ends], axis=1)
