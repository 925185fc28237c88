"""Profiling-overhead model (Figure 6 and Table 5).

Overhead on a simulator cannot be wall-clocked meaningfully, so it is
*priced*: a profiling run yields genuine event counts (accesses
recorded, measurement bytes, intervals merged, snapshot bytes moved —
see :class:`~repro.collector.collector.CollectionCounters`), and an
:class:`OverheadModel` converts them to time under a platform's
bandwidths.  The structure mirrors how the instrumentation actually
costs:

- instrumented kernels run slower by a multiplicative factor (the
  Sanitizer callbacks execute inline with the kernel), applied to the
  kernel-time share of the instrumented launches;
- the interval merge runs on the GPU for ValueExpert (partially hidden
  behind the application kernel by the most-room-policy co-scheduling)
  and on the CPU for GVProf;
- measurement data crosses PCIe: for ValueExpert only the fine pass's
  (sampled) value records and the adaptive-copy snapshot ranges; for
  GVProf every record of every kernel;
- CPU-side analysis is per record that reaches the CPU.

Two calibrated models are provided: :data:`VALUEEXPERT_MODEL` and
:data:`GVPROF_MODEL` (Section 7: GVProf "copies measurement data from
GPU to CPU for analysis, causing frequent GPU-CPU communication and
prohibitively high analysis overhead").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collector.collector import CollectionCounters
from repro.collector.gpubuffer import RECORD_BYTES
from repro.gpu.timing import Platform


@dataclass(frozen=True)
class OverheadModel:
    """Cost constants of one tool's measurement data path."""

    name: str
    #: CPU-side cost of intercepting one GPU API (seconds).
    per_api_s: float = 2e-6
    #: Per-instrumented-launch synchronization stall (seconds).
    per_launch_sync_s: float = 5e-6
    #: Multiplicative slowdown of an instrumented kernel when recording
    #: addresses only (coarse) and when also recording values (fine).
    kernel_slowdown_coarse: float = 2.0
    kernel_slowdown_fine: float = 4.0
    #: Residual whole-app dilation of a fine pass: Sanitizer-patched
    #: modules run slower even where nothing is recorded, and the
    #: collector serializes streams.
    residual_app_slowdown_fine: float = 2.4
    #: Whether intervals merge on the GPU (ValueExpert) or CPU (GVProf).
    merge_on_gpu: bool = True
    #: Fraction of the GPU-side merge hidden behind the application
    #: kernel by co-scheduling.
    overlap_fraction: float = 0.7
    #: CPU throughput for interval merging when merge_on_gpu is False
    #: (intervals per second).
    cpu_interval_rate: float = 2.0e8
    #: CPU hashing/compare throughput for snapshots (bytes/second).
    snapshot_cpu_rate: float = 5.0e10
    #: Whether every record is shipped to the CPU (GVProf) rather than
    #: only the fine pass's sampled records (ValueExpert).
    transfer_all_records: bool = False
    #: CPU-side processing per record that reaches the CPU (seconds).
    per_access_cpu_s: float = 10e-9


VALUEEXPERT_MODEL = OverheadModel(
    name="ValueExpert",
    merge_on_gpu=True,
    transfer_all_records=False,
)

#: The unoptimized path the paper quotes for motivation (Section 6:
#: "without any optimization, ValueExpert slows down
#: Rodinia/streamcluster by 1200x"): every access processed one at a
#: time at an instrumentation callback, synchronously, on the CPU — no
#: buffering, no warp compaction, no GPU merge, no sampling.
UNOPTIMIZED_MODEL = OverheadModel(
    name="ValueExpert (unoptimized)",
    kernel_slowdown_coarse=30.0,
    kernel_slowdown_fine=30.0,
    merge_on_gpu=False,
    overlap_fraction=0.0,
    cpu_interval_rate=5.0e6,
    transfer_all_records=True,
    per_access_cpu_s=150e-9,
    per_launch_sync_s=100e-6,
    residual_app_slowdown_fine=4.0,
)

GVPROF_MODEL = OverheadModel(
    name="GVProf",
    kernel_slowdown_coarse=8.0,
    kernel_slowdown_fine=8.0,
    merge_on_gpu=False,
    overlap_fraction=0.0,
    cpu_interval_rate=6.0e8,
    transfer_all_records=True,
    per_access_cpu_s=10e-9,
    per_launch_sync_s=50e-6,
)


@dataclass
class OverheadReport:
    """Priced overhead of one profiling run."""

    tool: str
    workload: str
    platform: str
    app_time_s: float
    tool_time_s: float

    @property
    def total_time_s(self) -> float:
        """Application plus tool time."""
        return self.app_time_s + self.tool_time_s

    @property
    def overhead(self) -> float:
        """Slowdown factor (>= 1.0)."""
        if self.app_time_s <= 0:
            return 1.0
        return self.total_time_s / self.app_time_s

    def __str__(self) -> str:
        return (
            f"{self.tool} on {self.workload} [{self.platform}]: "
            f"{self.overhead:.2f}x"
        )


def price_run(
    model: OverheadModel,
    counters: CollectionCounters,
    platform: Platform,
    app_time_s: float,
    kernel_time_s: Optional[float] = None,
    workload: str = "",
    fine: bool = True,
) -> OverheadReport:
    """Price one profiling run's overhead from its counters.

    ``fine`` selects whether value records were captured (fine pass) or
    only addresses (coarse pass).  ``kernel_time_s`` is the application
    kernel-time share; when omitted, half the app time is assumed.
    """
    if kernel_time_s is None:
        kernel_time_s = app_time_s * 0.5
    pcie = platform.pcie_bandwidth_gbs * 1e9

    tool_time = counters.apis_intercepted * model.per_api_s
    tool_time += counters.instrumented_launches * model.per_launch_sync_s

    # Instrumented kernels run slower; only the instrumented fraction
    # of launches pays the factor.
    slowdown = (
        model.kernel_slowdown_fine if fine else model.kernel_slowdown_coarse
    )
    if counters.total_launches:
        fraction = counters.instrumented_launches / counters.total_launches
    else:
        fraction = 0.0
    tool_time += kernel_time_s * (slowdown - 1.0) * fraction

    # Interval merge.
    if model.merge_on_gpu:
        merge_time = counters.raw_intervals / platform.gpu_interval_rate
        tool_time += merge_time * (1.0 - model.overlap_fraction)
    else:
        tool_time += counters.raw_intervals / model.cpu_interval_rate

    # Measurement-data transfers + CPU-side analysis.
    record_bytes = counters.recorded_accesses * RECORD_BYTES
    if model.transfer_all_records:
        tool_time += record_bytes / pcie
        tool_time += counters.recorded_accesses * model.per_access_cpu_s
        tool_time += app_time_s * (model.residual_app_slowdown_fine - 1.0)
    elif fine:
        # Only the (sampled, filtered) fine records cross PCIe, but
        # the patched binaries dilate the whole run.
        tool_time += record_bytes / pcie
        tool_time += counters.recorded_accesses * model.per_access_cpu_s
        tool_time += app_time_s * (model.residual_app_slowdown_fine - 1.0)

    # Snapshot maintenance (the coarse pass): adaptive-copy transfers,
    # hashing, and bitwise comparison on the CPU.
    if not fine or model.transfer_all_records:
        tool_time += counters.snapshot_bytes / pcie
        tool_time += counters.snapshot_copies * 2e-6
        tool_time += 2 * counters.snapshot_bytes / model.snapshot_cpu_rate

    return OverheadReport(
        tool=model.name,
        workload=workload,
        platform=platform.name,
        app_time_s=app_time_s,
        tool_time_s=tool_time,
    )
