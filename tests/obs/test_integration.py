"""End-to-end telemetry: a profiled run populates metrics and spans.

These tests exercise the acceptance criteria for the self-telemetry
subsystem: an instrumented profile run must produce a rich metric set
spanning the collector, analyzer, and flowgraph stages, plus nested
self-spans; with telemetry disabled, nothing may be recorded.
"""

import json

import numpy as np
import pytest

import repro.obs as telemetry
from repro import ToolConfig, ValueExpert
from repro.obs import MetricsRegistry, SpanTracer
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from tests.conftest import fill_constant_kernel


def _workload(rt: GpuRuntime):
    out = rt.malloc(256, DType.FLOAT32, "out")
    rt.memcpy_h2d(out, HostArray(np.zeros(256, np.float32), "host_zeros"))
    rt.launch(fill_constant_kernel, 1, 256, out, 0.0)
    rt.memset(out, 0)


def _profile(observability: bool):
    tool = ValueExpert(ToolConfig(observability=observability))
    return tool.profile(_workload, name="obs-integration")


def test_enabled_run_populates_metrics_across_stages():
    _profile(observability=True)
    names = telemetry.registry().names()
    assert len(names) >= 10
    for stage in ("runtime", "collector", "analyzer", "flowgraph", "tool"):
        assert any(n.startswith(f"repro_{stage}_") for n in names), stage


def test_enabled_run_records_nested_spans():
    _profile(observability=True)
    tracer = telemetry.tracer()
    assert tracer.by_name("tool.profile")
    assert tracer.by_name("collector.launch")
    assert tracer.by_name("collector.sweep")
    assert any(s.depth > 0 for s in tracer.spans)
    assert tracer.open_spans == 0


def test_prometheus_dump_from_profiled_run():
    _profile(observability=True)
    text = telemetry.registry().to_prometheus()
    assert "# TYPE repro_collector_records_total counter" in text
    assert "# TYPE repro_collector_launch_seconds histogram" in text
    assert 'repro_runtime_api_calls_total{api="cudaLaunchKernel"} 1' in text


def test_self_spans_export_as_chrome_trace():
    _profile(observability=True)
    events = json.loads(telemetry.tracer().to_json())
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    assert all(e["pid"] == 1 for e in spans)
    assert all(e["dur"] > 0 for e in spans)


def test_disabled_run_records_nothing():
    _profile(observability=False)
    assert telemetry.registry().names() == []
    assert telemetry.tracer().spans == []
    assert not telemetry.ENABLED


def test_observability_flag_restored_after_profile():
    _profile(observability=True)
    # The tool enabled telemetry for the run and disabled it afterwards.
    assert not telemetry.ENABLED
    # The recorded data remains inspectable after the run.
    assert telemetry.registry().names()


@pytest.mark.parametrize("path", ["live", "replay", "sharded"])
def test_every_profile_path_records_a_tool_offline_span(tmp_path, path):
    trace = str(tmp_path / "obs.vetrace")
    ValueExpert(ToolConfig()).profile(_workload, record_path=trace)
    tracer = SpanTracer()
    tool = ValueExpert(
        ToolConfig(observability=True), registry=MetricsRegistry(), tracer=tracer
    )
    if path == "live":
        tool.profile(_workload, name="obs-integration")
    else:
        tool.profile_from_trace(trace, shards=2 if path == "sharded" else 1)
    assert (tool.last_shard_results is not None) == (path == "sharded")
    assert tracer.by_name("tool.offline")
    assert tracer.by_name("offline.annotate")
    assert tracer.open_spans == 0


@pytest.mark.parametrize("name", ["", "renamed"])
@pytest.mark.parametrize("events", [None, (2, None)])
def test_range_replay_labels_its_spans_and_is_one_replay(tmp_path, events, name):
    """A replayed range labels its spans with the workload, and its
    passive prefix and range count as one replay of the recording."""
    trace = str(tmp_path / "obs.vetrace")
    ValueExpert(ToolConfig()).profile(
        _workload, name="obs-integration", record_path=trace
    )
    registry, tracer = MetricsRegistry(), SpanTracer()
    tool = ValueExpert(
        ToolConfig(observability=True), registry=registry, tracer=tracer
    )
    tool.profile_from_trace(trace, name=name, events=events)
    spans = tracer.by_name("tool.replay") + tracer.by_name("tool.offline")
    assert len(spans) == 3
    assert {span.attrs["workload"] for span in spans} == {
        name or "obs-integration"
    }
    assert len(tracer.by_name("trace.replay")) == (1 if events is None else 2)
    assert registry.histogram("repro_trace_replay_seconds").count == 1
    assert registry.counter("repro_trace_replay_events_total").value == 4
    assert registry.gauge("repro_trace_replay_events_per_second").value > 0
