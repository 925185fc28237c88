"""Tests for the time-only hotspot profiler (the §1.2 contrast)."""

import numpy as np

from repro.baselines.hotspot import HotspotProfiler
from repro.gpu.dtypes import DType
from repro.gpu.runtime import HostArray
from repro.trace_io import TraceRecorder, TraceReplayer


def _run_workload(rt, fill_kernel):
    profiler = HotspotProfiler()
    profiler.attach(rt)
    out = rt.malloc(1024, DType.FLOAT32, "out")
    rt.memcpy_h2d(out, HostArray(np.zeros(1024, np.float32)))
    for _ in range(3):
        rt.launch(fill_kernel, 4, 256, out, 0.0)
    rt.memset(out, 0)
    profiler.detach()
    return profiler.report


def test_kernel_time_attributed_by_name(rt, fill_kernel):
    report = _run_workload(rt, fill_kernel)
    assert "fill_constant" in report.kernel_time
    assert report.kernel_launches["fill_constant"] == 3
    assert report.kernel_time["fill_constant"] > 0


def test_memory_times_tracked(rt, fill_kernel):
    report = _run_workload(rt, fill_kernel)
    assert report.memcpy_time > 0
    assert report.memset_time > 0


def test_hottest_kernels_ranked(rt, fill_kernel, acc_kernel):
    profiler = HotspotProfiler()
    profiler.attach(rt)
    out = rt.malloc(1024, DType.FLOAT32)
    for _ in range(10):
        rt.launch(acc_kernel, 4, 256, out, 1.0)
    rt.launch(fill_kernel, 1, 64, out, 0.0)
    profiler.detach()
    hottest = profiler.report.hottest_kernels()
    assert hottest[0][0] == "accumulate"


def test_summary_renders(rt, fill_kernel):
    report = _run_workload(rt, fill_kernel)
    summary = report.summary()
    assert "hotspot report" in summary
    assert "fill_constant" in summary


def test_hotspot_sees_symptom_not_cause(rt, fill_kernel):
    """The motivating contrast: the hotspot profiler shows the fill
    kernel's time but carries no value information — no report field
    can say the writes were redundant zeros."""
    report = _run_workload(rt, fill_kernel)
    field_names = set(vars(report))
    assert "kernel_time" in field_names
    assert not any("value" in name or "pattern" in name for name in field_names)


def test_replay_reports_the_live_times(rt, fill_kernel, tmp_path):
    """The profiler attached to a replay of a recording reports the
    same per-kernel and per-API times as it did live."""
    path = str(tmp_path / "run.vetrace")
    with TraceRecorder(path) as recorder:
        recorder.attach(rt)
        live = _run_workload(rt, fill_kernel)
        recorder.detach()
    profiler = HotspotProfiler()
    with TraceReplayer(path) as replayer:
        profiler.attach(replayer)
        replayer.replay()
        profiler.detach()
    assert profiler.report.kernel_launches == {"fill_constant": 3}
    assert profiler.report == live
