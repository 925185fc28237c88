"""A GVProf-style value redundancy profiler (the Table 5 comparator).

GVProf (SC'20, same research group) finds *value redundancies* at the
granularity of individual instructions within individual kernels:

- **temporal redundancy** — an instruction at PC p loads/stores the
  same value to the same address as the previous access of that
  address within the kernel;
- **spatial redundancy** — the values accessed by one (warp-wide)
  instruction execution are all identical.

What it deliberately does *not* do — and what motivates ValueExpert —
is also reproduced: no data-object view (results are keyed by PC, not
by array), no value patterns, no cross-kernel value flow, and every
access record is shipped to the CPU for analysis (the modelled source
of its ~47x overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.gpu.accesses import AccessKind
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import ApiEvent, KernelLaunchEvent, RuntimeListener


@dataclass
class PcRedundancy:
    """Redundancy statistics for one instruction (PC) in one kernel."""

    kernel: str
    pc: int
    kind: str
    accesses: int = 0
    temporal_redundant: int = 0
    spatial_redundant: int = 0

    @property
    def temporal_fraction(self) -> float:
        """Share of accesses redundant against the previous value."""
        return self.temporal_redundant / self.accesses if self.accesses else 0.0

    @property
    def spatial_fraction(self) -> float:
        """Share of accesses in warp-uniform executions."""
        return self.spatial_redundant / self.accesses if self.accesses else 0.0


@dataclass
class GvprofReport:
    """Per-PC redundancy results, kernel-scoped."""

    per_pc: Dict[Tuple[str, int, str], PcRedundancy] = field(default_factory=dict)
    records_transferred: int = 0

    def top_redundancies(self, limit: int = 10) -> List[PcRedundancy]:
        """Most temporally redundant instructions first."""
        entries = sorted(
            self.per_pc.values(),
            key=lambda e: (-e.temporal_fraction, -e.accesses),
        )
        return entries[:limit]

    def summary(self) -> str:
        """Human-readable top-redundancies digest."""
        lines = [
            f"GVProf report: {len(self.per_pc)} instrumented PCs, "
            f"{self.records_transferred} records transferred to the CPU"
        ]
        for entry in self.top_redundancies(5):
            lines.append(
                f"  {entry.kernel} pc={entry.pc:#x} [{entry.kind}]: "
                f"{entry.temporal_fraction:.1%} temporal, "
                f"{entry.spatial_fraction:.1%} spatial redundancy "
                f"({entry.accesses} accesses)"
            )
        return "\n".join(lines)


class GvprofProfiler(RuntimeListener):
    """Kernel-scoped value redundancy profiler.

    Usage::

        profiler = GvprofProfiler()
        profiler.attach(runtime)
        workload(runtime)
        profiler.detach()
        print(profiler.report.summary())
    """

    serializes_streams = True

    def __init__(self):
        self.report = GvprofReport()

    # -- RuntimeListener ----------------------------------------------------

    def instrument_kernel(self, kernel: Kernel, grid: int, block: int) -> bool:
        """GVProf instruments every kernel, every launch."""
        return True

    def on_api_end(self, event: ApiEvent) -> None:
        """Process one launch's records, kernel-scoped."""
        if not isinstance(event, KernelLaunchEvent):
            return
        # The kernel-scoped analysis: last value per address *resets*
        # on every launch — redundancy across kernels is invisible,
        # which is exactly the blind spot Section 7 describes.
        last_value: Dict[Tuple[int, int], bytes] = {}
        for record in event.records:
            self.report.records_transferred += record.count
            key = (record.kernel_name, record.pc, record.kind.value)
            entry = self.report.per_pc.get(key)
            if entry is None:
                entry = PcRedundancy(
                    kernel=record.kernel_name, pc=record.pc, kind=record.kind.value
                )
                self.report.per_pc[key] = entry
            entry.accesses += record.count
            entry.temporal_redundant += self._temporal(record, last_value)
            entry.spatial_redundant += self._spatial(record)

    @staticmethod
    def _temporal(record, last_value: Dict) -> int:
        """Accesses whose value equals the previous access of the same
        address within this kernel."""
        redundant = 0
        values = np.asarray(record.values)
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(values.size, -1)
        for position, address in enumerate(record.addresses):
            key = (int(address), record.itemsize)
            current = raw[position].tobytes()
            if last_value.get(key) == current:
                redundant += 1
            if record.kind is AccessKind.STORE or key not in last_value:
                last_value[key] = current
        return redundant

    @staticmethod
    def _spatial(record) -> int:
        """Accesses sharing the single warp-wide value, when uniform."""
        values = np.asarray(record.values)
        if values.size < 2:
            return 0
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(values.size, -1)
        if (raw == raw[0]).all():
            return int(values.size)
        return 0
