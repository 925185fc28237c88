"""The shard worker entry point, run inline."""

import pytest

import repro.obs as telemetry
from repro import FaultPlan, ToolConfig, ValueExpert
from repro.analysis.sharding import run_shard
from repro.errors import DegradedProfileWarning, TraceError
from tests.resilience.conftest import chaos_workload


def test_run_shard_restores_telemetry_when_the_replay_fails(tmp_path):
    """The worker switches telemetry off while it replays and back on
    afterwards, also when the replay raises."""
    path = str(tmp_path / "torn.vetrace")
    tool = ValueExpert(ToolConfig(fault_plan=FaultPlan(seed=0, trace_tear_after=5)))
    with pytest.warns(DegradedProfileWarning):
        tool.profile(chaos_workload, record_path=path)
    telemetry.disable()
    with telemetry.scoped():
        with pytest.raises(TraceError):
            run_shard(path, 0, 0, 5, ToolConfig(), salvage=False)
        assert telemetry.ENABLED
    assert not telemetry.ENABLED
