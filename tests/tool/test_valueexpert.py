"""Tests for the ValueExpert facade."""

import numpy as np
import pytest

from repro import Pattern, ToolConfig, ValueExpert
from repro.errors import WorkloadError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.gpu.timing import A100


def _toy_workload(rt: GpuRuntime):
    out = rt.malloc(256, DType.FLOAT32, "out")
    rt.memcpy_h2d(out, HostArray(np.zeros(256, np.float32), "host_zeros"))
    rt.memset(out, 0)


def test_profile_returns_populated_profile():
    profile = ValueExpert().profile(_toy_workload, name="toy")
    assert profile.workload_name == "toy"
    assert profile.graph.num_vertices > 1
    assert profile.hits


def test_profile_accepts_run_objects():
    class Runnable:
        name = "runnable"

        def run(self, rt):
            _toy_workload(rt)

    profile = ValueExpert().profile(Runnable())
    assert profile.workload_name == "runnable"
    assert profile.hits


def test_profile_rejects_non_callables():
    with pytest.raises(WorkloadError):
        ValueExpert().profile(42)


def test_platform_selection_recorded():
    profile = ValueExpert().profile(_toy_workload, platform=A100)
    assert profile.platform_name == "A100"


def test_coarse_only_config():
    profile = ValueExpert(ToolConfig.coarse_only()).profile(_toy_workload)
    assert profile.hits_by_pattern(Pattern.REDUNDANT_VALUES)
    # No kernels ran, and fine analysis is off anyway.
    assert all(h.pattern.is_coarse for h in profile.hits)


def test_fine_only_config_skips_snapshot_patterns():
    def kernel_workload(rt):
        from tests.conftest import fill_constant_kernel

        out = rt.malloc(256, DType.FLOAT32, "out")
        rt.launch(fill_constant_kernel, 1, 256, out, 0.0)

    profile = ValueExpert(ToolConfig.fine_only()).profile(kernel_workload)
    assert profile.hits_by_pattern(Pattern.SINGLE_ZERO)


def test_collector_detached_after_profile():
    tool = ValueExpert()
    runtime = GpuRuntime()
    tool.profile(_toy_workload, runtime=runtime)
    assert runtime.listeners == []


def test_collector_detached_on_workload_error():
    tool = ValueExpert()
    runtime = GpuRuntime()

    def broken(rt):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tool.profile(broken, runtime=runtime)
    assert runtime.listeners == []


def test_counters_exposed_via_last_collector():
    tool = ValueExpert()
    tool.profile(_toy_workload)
    assert tool.last_collector is not None
    assert tool.last_collector.counters.apis_intercepted > 0


def test_annotation_adds_source_info():
    profile = ValueExpert().profile(_toy_workload)
    sourced = [h for h in profile.hits if "source" in h.metrics]
    assert sourced
    assert any("test_valueexpert.py" in h.metrics["source"] for h in sourced)


def test_two_profiles_are_independent():
    tool = ValueExpert()
    first = tool.profile(_toy_workload, name="first")
    second = tool.profile(_toy_workload, name="second")
    assert first is not second
    assert first.graph is not second.graph
    assert len(first.hits) == len(second.hits)


def test_reused_tool_replaces_all_last_run_fields(tmp_path):
    """Every call sets last_collector, last_runtime and
    last_shard_results together; nothing leaks from an earlier run."""
    path = str(tmp_path / "toy.vetrace")
    tiny = str(tmp_path / "tiny.vetrace")
    tool = ValueExpert()
    tool.profile(_toy_workload, record_path=path)
    tool.profile(lambda rt: rt.malloc(16, DType.FLOAT32, "x"), record_path=tiny)

    def sharded():
        tool.profile_from_trace(path, shards=2)
        assert len(tool.last_shard_results) == 2
        assert tool.last_collector is None and tool.last_runtime is None

    sharded()
    tool.profile_from_trace(path)
    assert tool.last_shard_results is None
    assert tool.last_collector is not None and tool.last_runtime is None

    sharded()
    tool.profile(_toy_workload)
    assert tool.last_shard_results is None
    assert tool.last_collector is not None and tool.last_runtime is not None

    # A one-event recording cannot split: the sharded call replays
    # serially and reports no shards.
    sharded()
    tool.profile_from_trace(tiny, shards=2)
    assert tool.last_shard_results is None
    assert tool.last_collector is not None
