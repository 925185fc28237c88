"""Torn-trace salvage: a truncated ``.vetrace`` is replayable up to
its last complete frame, and says so in the health report."""

import os

import pytest

from repro import FaultPlan, ToolConfig, ValueExpert
from repro.errors import DegradedProfileWarning, TraceError
from repro.trace_io import TraceReader


@pytest.fixture
def torn_trace(tmp_path, workload):
    """Record the chaos workload with a tear injected mid-stream."""
    path = str(tmp_path / "torn.vetrace")
    plan = FaultPlan(seed=0, trace_tear_after=5)
    tool = ValueExpert(ToolConfig(fault_plan=plan))
    with pytest.warns(DegradedProfileWarning):
        profile = tool.profile(workload, name="chaos", record_path=path)
    assert profile.health.torn_trace
    return path


def test_plain_reader_rejects_torn_trace_with_offset(torn_trace):
    with pytest.raises(TraceError) as excinfo:
        TraceReader(torn_trace)
    assert "truncated" in str(excinfo.value)
    assert excinfo.value.last_good_offset is not None
    assert 0 < excinfo.value.last_good_offset <= os.path.getsize(torn_trace)


def test_default_replay_raises_on_torn_trace(torn_trace):
    with pytest.raises(TraceError):
        ValueExpert(ToolConfig()).profile_from_trace(torn_trace)


def test_resilient_replay_salvages_prefix(torn_trace):
    tool = ValueExpert(ToolConfig(resilient=True))
    with pytest.warns(DegradedProfileWarning):
        profile = tool.profile_from_trace(torn_trace)
    health = profile.health
    assert health.torn_trace
    assert health.trace_salvaged
    assert health.salvaged_events == 5
    assert health.salvaged_bytes > 0
    # The launch survived in the salvaged prefix; its kernel table did
    # not (it lives in the footer), so the replayer stubbed it.
    assert health.stub_kernels >= 1
    kernel_names = {v.name for v in profile.graph.vertices()}
    assert "copy_elements" in kernel_names


def test_salvaged_reader_exposes_truncation_stats(torn_trace):
    reader = TraceReader(torn_trace, salvage=True)
    assert reader.truncated
    assert reader.salvaged_events == 5
    assert reader.footer["kernels"] == {}
    assert len(list(reader.events())) == 5


def test_intact_trace_replays_identically_under_salvage(tmp_path, workload):
    """Salvage mode on a healthy trace changes nothing."""
    path = str(tmp_path / "ok.vetrace")
    ValueExpert(ToolConfig()).profile(workload, name="chaos", record_path=path)

    plain = ValueExpert(ToolConfig()).profile_from_trace(path)
    resilient = ValueExpert(ToolConfig(resilient=True)).profile_from_trace(path)
    assert resilient.health.pristine
    assert resilient.to_json() == plain.to_json()


def test_sharded_salvage_reports_like_serial_salvage(torn_trace):
    """A truncated recording replayed over shards reports the same
    salvage as a serial replay of it."""
    with pytest.warns(DegradedProfileWarning):
        serial = ValueExpert(ToolConfig(resilient=True)).profile_from_trace(
            torn_trace
        )
    tool = ValueExpert(ToolConfig(resilient=True))
    with pytest.warns(DegradedProfileWarning):
        sharded = tool.profile_from_trace(torn_trace, shards=2)
    assert len(tool.last_shard_results) == 2
    for field in (
        "torn_trace", "trace_salvaged", "salvaged_events", "salvaged_bytes"
    ):
        assert getattr(sharded.health, field) == getattr(serial.health, field)
    assert sharded.health.salvaged_events == 5
