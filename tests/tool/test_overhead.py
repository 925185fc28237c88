"""Tests for the overhead model."""

import pytest

from repro.collector.collector import CollectionCounters
from repro.gpu.timing import A100, RTX_2080_TI
from repro.tool.overhead import (
    GVPROF_MODEL,
    OverheadReport,
    price_run,
    VALUEEXPERT_MODEL,
)


def _counters(**kwargs):
    defaults = dict(
        apis_intercepted=20,
        total_launches=10,
        instrumented_launches=10,
        fine_launches=10,
        recorded_accesses=1_000_000,
        buffer_flushes=2,
        raw_intervals=1_000_000,
        compacted_intervals=100_000,
        merged_intervals=100,
        snapshot_bytes=1_000_000,
        snapshot_copies=20,
    )
    defaults.update(kwargs)
    return CollectionCounters(**defaults)


def test_overhead_at_least_one():
    report = price_run(
        VALUEEXPERT_MODEL, CollectionCounters(), RTX_2080_TI, 1e-3
    )
    assert report.overhead >= 1.0


def test_gvprof_costs_more_than_valueexpert():
    """Priced the way each tool actually runs: GVProf measures every
    access of every launch; ValueExpert's fine pass is sampled and
    filtered (1 launch in 20, 1 block in 20)."""
    full = _counters()
    sampled = _counters(
        recorded_accesses=1_000_000 // 400,
        instrumented_launches=1,
        raw_intervals=1_000_000 // 400,
    )
    ve = price_run(VALUEEXPERT_MODEL, sampled, RTX_2080_TI, 1e-3, 5e-4)
    gv = price_run(GVPROF_MODEL, full, RTX_2080_TI, 1e-3, 5e-4)
    assert gv.overhead > 2 * ve.overhead


def test_fine_pass_costs_more_than_coarse_for_same_counters():
    counters = _counters()
    coarse = price_run(
        VALUEEXPERT_MODEL, counters, RTX_2080_TI, 1e-3, 5e-4, fine=False
    )
    fine = price_run(
        VALUEEXPERT_MODEL, counters, RTX_2080_TI, 1e-3, 5e-4, fine=True
    )
    assert fine.tool_time_s > coarse.tool_time_s


def test_sampling_reduces_fine_cost():
    full = _counters()
    sampled = _counters(
        recorded_accesses=50_000, instrumented_launches=1, raw_intervals=50_000
    )
    expensive = price_run(VALUEEXPERT_MODEL, full, RTX_2080_TI, 1e-3, 5e-4)
    cheap = price_run(VALUEEXPERT_MODEL, sampled, RTX_2080_TI, 1e-3, 5e-4)
    assert cheap.tool_time_s < expensive.tool_time_s


def test_more_intervals_cost_more():
    few = price_run(
        VALUEEXPERT_MODEL, _counters(raw_intervals=1_000), RTX_2080_TI,
        1e-3, 5e-4, fine=False,
    )
    many = price_run(
        VALUEEXPERT_MODEL, _counters(raw_intervals=100_000_000), RTX_2080_TI,
        1e-3, 5e-4, fine=False,
    )
    assert many.tool_time_s > few.tool_time_s


def test_gvprof_pays_for_cpu_merge():
    """Moving the merge to the CPU must dominate the GPU-side merge."""
    counters = _counters(recorded_accesses=0, snapshot_bytes=0,
                         raw_intervals=10_000_000)
    gv = price_run(GVPROF_MODEL, counters, RTX_2080_TI, 1e-3, 5e-4, fine=False)
    ve = price_run(VALUEEXPERT_MODEL, counters, RTX_2080_TI, 1e-3, 5e-4,
                   fine=False)
    assert gv.tool_time_s > 10 * ve.tool_time_s


def test_report_str_format():
    report = OverheadReport("T", "w", "p", app_time_s=1.0, tool_time_s=1.5)
    assert "2.50x" in str(report)


def test_zero_app_time_degrades_gracefully():
    report = OverheadReport("T", "w", "p", app_time_s=0.0, tool_time_s=1.0)
    assert report.overhead == 1.0


def test_record_bytes_shared_with_gpu_buffer():
    """The pricing model must use the collector's actual record size,
    not a private copy that can drift."""
    import repro.tool.overhead as overhead
    from repro.collector.gpubuffer import RECORD_BYTES

    assert overhead.RECORD_BYTES is RECORD_BYTES
    assert not hasattr(overhead, "_RECORD_BYTES")
