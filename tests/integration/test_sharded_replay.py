"""Range and sharded replay equivalence.

The contract (``docs/trace.md``): for any shard count, the merged
profile's pattern hits, flow graph, and object table are byte-identical
to a serial replay's.  Counters are per-shard active-range sums and are
exempt (the passive warm-up replays prefix events without analysis, so
e.g. snapshot-copy counts attribute differently).  An event range is
exact too: its hits are the serial replay's hits for its events, and
sharding a range leaves its profile as it is.
"""

import collections
import json

import pytest

from repro.analysis.sharding import plan_shards
from repro.errors import AnalysisError, TraceError
from repro.flowgraph.graph import HOST_VERTEX_ID
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.trace_io import TraceReplayer
from repro.workloads import get_workload

WORKLOADS = ["rodinia/bfs", "rodinia/backprop", "darknet"]

_EXACT_SECTIONS = ("hits", "graph", "objects")


def _record(tmp_path, name):
    path = str(tmp_path / (name.replace("/", "_") + ".vetrace"))
    workload = get_workload(name)(scale=0.25)
    ValueExpert(ToolConfig()).profile(workload, name=name, record_path=path)
    return path


def _sections(profile):
    return json.loads(profile.to_json())


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_profile_matches_serial(tmp_path, name, shards):
    path = _record(tmp_path, name)
    serial = _sections(ValueExpert(ToolConfig()).profile_from_trace(path))
    tool = ValueExpert(ToolConfig())
    sharded = _sections(tool.profile_from_trace(path, shards=shards))
    assert tool.last_shard_results is not None
    assert len(tool.last_shard_results) == shards
    for section in _EXACT_SECTIONS:
        assert sharded[section] == serial[section], section
    assert sharded["workload"] == serial["workload"]
    assert sharded["platform"] == serial["platform"]


def test_shard_ranges_partition_the_event_stream(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    tool = ValueExpert(ToolConfig())
    tool.profile_from_trace(path, shards=3)
    results = tool.last_shard_results
    assert results[0].start == 0
    for left, right in zip(results, results[1:]):
        assert left.stop == right.start
    total = sum(result.events for result in results)
    assert total == results[-1].stop


def test_more_shards_than_events_degrades_gracefully(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    serial = _sections(ValueExpert(ToolConfig()).profile_from_trace(path))
    sharded = _sections(
        ValueExpert(ToolConfig()).profile_from_trace(path, shards=1000)
    )
    for section in _EXACT_SECTIONS:
        assert sharded[section] == serial[section], section


def test_sharding_refuses_memory_budget(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    tool = ValueExpert(ToolConfig(memory_budget_bytes=1 << 20))
    with pytest.raises(AnalysisError, match="memory_budget_bytes"):
        tool.profile_from_trace(path, shards=2)


def test_sharding_refuses_replay_fault_plans(tmp_path):
    from repro.resilience import FaultPlan

    path = _record(tmp_path, "rodinia/bfs")
    plan = FaultPlan.chaos(3, scope="replay")
    tool = ValueExpert(ToolConfig(resilient=True, fault_plan=plan))
    with pytest.raises(AnalysisError, match="fault plan"):
        tool.profile_from_trace(path, shards=2)


def test_partial_replay_analyzes_only_the_range(tmp_path):
    path = _record(tmp_path, "rodinia/bfs")
    full = ValueExpert(ToolConfig()).profile_from_trace(path)
    partial = ValueExpert(ToolConfig()).profile_from_trace(
        path, events=(0, 10)
    )
    assert len(partial.hits) < len(full.hits)
    assert partial.graph.num_vertices < full.graph.num_vertices
    # An empty range applies state but analyzes nothing.
    none = ValueExpert(ToolConfig()).profile_from_trace(path, events=(0, 0))
    assert none.hits == []


def test_partial_replay_tail_sees_prefix_state(tmp_path):
    """Analyzing a tail range still resolves objects and flow sources
    allocated in the (passively replayed) prefix."""
    path = _record(tmp_path, "rodinia/bfs")
    tail = ValueExpert(ToolConfig()).profile_from_trace(path, events=(12, None))
    assert tail.graph.num_edges > 0
    assert all(obj.alloc_id is not None for obj in tail.objects)


def _small_recording(directory, name):
    """A recording of ``name`` at scale 0.1 and its event count."""
    path = str(directory / (name.replace("/", "_") + ".vetrace"))
    workload = get_workload(name)(scale=0.1, seed=0)
    ValueExpert(ToolConfig()).profile(workload, record_path=path)
    with TraceReplayer(path) as replayer:
        return path, len(replayer.frame_index())


@pytest.fixture(scope="module")
def small_bfs(tmp_path_factory):
    """A bfs recording at scale 0.1 and its event count."""
    return _small_recording(tmp_path_factory.mktemp("ranges"), "rodinia/bfs")


def _occurrences(profile):
    """Hit occurrences keyed by pattern, object label and the identity
    of the hit's API vertex: vertex ids differ between profiles whose
    graphs differ, identities do not."""
    counts = collections.Counter()
    for hit in profile.hits:
        vertex = profile.graph.vertex(int(hit.api_ref[1:].partition(":")[0]))
        key = (hit.pattern, hit.object_label, vertex.kind, vertex.name,
               vertex.call_path, vertex.device)
        counts[key] += hit.metrics.get("occurrences", 1)
    return counts


def test_event_ranges_split_the_serial_hits_exactly(small_bfs):
    """At every split point A, the hits of [0, A) and [A, end) add up to
    the serial replay's."""
    path, count = small_bfs
    serial = _occurrences(ValueExpert(ToolConfig()).profile_from_trace(path))
    assert serial
    for split in range(count + 1):
        head = ValueExpert(ToolConfig()).profile_from_trace(path, events=(0, split))
        tail = ValueExpert(ToolConfig()).profile_from_trace(
            path, events=(split, None)
        )
        assert _occurrences(head) + _occurrences(tail) == serial, split


@pytest.mark.parametrize("start", [1, 12, -3])
def test_sharded_event_range_matches_the_single_range(small_bfs, start):
    path, count = small_bfs
    start %= count
    single = _sections(
        ValueExpert(ToolConfig()).profile_from_trace(path, events=(start, None))
    )
    tool = ValueExpert(ToolConfig())
    sharded = _sections(
        tool.profile_from_trace(path, shards=2, events=(start, None))
    )
    results = tool.last_shard_results
    assert [(r.start, r.stop) for r in results] == [
        (start, results[1].start), (results[1].start, count)
    ]
    for section in _EXACT_SECTIONS:
        assert sharded[section] == single[section], section


@pytest.mark.parametrize("name", ["rodinia/bfs", "darknet"])
def test_event_range_past_the_end_analyzes_nothing(tmp_path, name):
    """bfs frees every allocation before it ends; darknet frees none, so
    its objects are still live where the range would start."""
    path, count = _small_recording(tmp_path, name)
    for shards in (1, 2):
        profile = ValueExpert(ToolConfig()).profile_from_trace(
            path, shards=shards, events=(count + 5, None)
        )
        assert profile.hits == []
        assert [v.vid for v in profile.graph.vertices()] == [HOST_VERTEX_ID]
        assert not any(vars(profile.counters).values())


@pytest.mark.parametrize("events", [(5, 2), (-1, None)])
def test_invalid_event_range_is_a_trace_error(small_bfs, events):
    with pytest.raises(TraceError, match="invalid replay event range"):
        ValueExpert(ToolConfig()).profile_from_trace(small_bfs[0], events=events)


def test_plan_shards_balances_by_weight():
    ranges = plan_shards([100, 1, 1, 1, 1, 100], 2)
    assert ranges == [(0, 3), (3, 6)]  # 102 bytes vs 102 bytes
    assert plan_shards([], 4) == []
    assert plan_shards([5], 4) == [(0, 1)]
    flat = plan_shards([0, 0, 0, 0], 2)  # zero weights fall back to counts
    assert flat == [(0, 2), (2, 4)]
