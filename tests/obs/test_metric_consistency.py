"""Self-telemetry counters agree with the profile they describe.

The obs counters are incremented on the hot paths, one branch per site;
the profile's :class:`CollectionCounters` and hit lists are built
separately.  Both must tell the same story, live and in serial replay.
"""

import pytest

from repro import ToolConfig, ValueExpert
from repro.obs import MetricsRegistry, SpanTracer
from repro.workloads import get_workload

WORKLOADS = ["darknet", "rodinia/bfs", "lammps"]

#: obs counter -> the CollectionCounters field it must equal.
COUNTERS = {
    "repro_collector_records_total": "recorded_accesses",
    "repro_collector_interval_sweeps_total": "interval_sweeps",
    "repro_collector_merged_intervals_total": "merged_intervals",
    "repro_collector_buffer_flushes_total": "buffer_flushes",
}


def _total(registry: MetricsRegistry, name: str) -> float:
    """Sum of a counter over all its label sets (0 if never created)."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(value for _, _, value in metric.samples())


def _observed_tool():
    registry = MetricsRegistry()
    tool = ValueExpert(
        ToolConfig(observability=True), registry=registry, tracer=SpanTracer()
    )
    return tool, registry


def _assert_consistent(registry, profile):
    for name, field in COUNTERS.items():
        assert _total(registry, name) == getattr(profile.counters, field), name
    assert profile.counters.recorded_accesses > 0
    assert _total(registry, "repro_analyzer_pattern_hits_total") == len(
        profile.hits
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_live_counters_match_the_profile(name):
    tool, registry = _observed_tool()
    profile = tool.profile(get_workload(name)(scale=0.25), name=name)
    _assert_consistent(registry, profile)


@pytest.mark.parametrize("name", WORKLOADS)
def test_replayed_counters_match_the_profile(name, tmp_path):
    path = str(tmp_path / "run.vetrace")
    ValueExpert(ToolConfig()).profile(
        get_workload(name)(scale=0.25), name=name, record_path=path
    )
    tool, registry = _observed_tool()
    profile = tool.profile_from_trace(path)
    _assert_consistent(registry, profile)
