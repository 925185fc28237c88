"""A classic time-only GPU profiler (the Section 1.2 straw man).

Reports where time goes — per-kernel and per-API — which is what
Nsight/nvprof-style tools provide.  It finds the *symptoms* (hot
kernels) but carries no value information, so none of the paper's
inefficiencies are explainable from its output; tests assert exactly
that contrast against ValueExpert's findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.gpu.runtime import (
    ApiEvent,
    KernelLaunchEvent,
    MemcpyEvent,
    MemsetEvent,
    RuntimeListener,
)


@dataclass
class HotspotReport:
    """Time per kernel and per memory-API category."""

    kernel_time: Dict[str, float] = field(default_factory=dict)
    kernel_launches: Dict[str, int] = field(default_factory=dict)
    memcpy_time: float = 0.0
    memset_time: float = 0.0

    def hottest_kernels(self, limit: int = 5) -> List[Tuple[str, float]]:
        """Kernels ranked by accumulated time."""
        ranked = sorted(self.kernel_time.items(), key=lambda kv: -kv[1])
        return ranked[:limit]

    @property
    def total_kernel_time(self) -> float:
        """Sum of all kernels' time."""
        return sum(self.kernel_time.values())

    def summary(self) -> str:
        """Human-readable hotspot digest."""
        lines = [
            f"hotspot report: {self.total_kernel_time * 1e6:.1f}us kernel, "
            f"{self.memcpy_time * 1e6:.1f}us memcpy, "
            f"{self.memset_time * 1e6:.1f}us memset"
        ]
        for name, seconds in self.hottest_kernels():
            launches = self.kernel_launches.get(name, 0)
            lines.append(
                f"  {name}: {seconds * 1e6:.1f}us over {launches} launches"
            )
        return "\n".join(lines)


class HotspotProfiler(RuntimeListener):
    """Accumulates modelled time per kernel/API — nothing else."""

    def __init__(self):
        self.report = HotspotReport()

    def on_api_end(self, event: ApiEvent) -> None:
        """Accumulate the event's modelled time."""
        if isinstance(event, KernelLaunchEvent):
            name = event.kernel.name
            self.report.kernel_time[name] = (
                self.report.kernel_time.get(name, 0.0) + event.time_s
            )
            self.report.kernel_launches[name] = (
                self.report.kernel_launches.get(name, 0) + 1
            )
        elif isinstance(event, MemcpyEvent):
            self.report.memcpy_time += event.time_s
        elif isinstance(event, MemsetEvent):
            self.report.memset_time += event.time_s
