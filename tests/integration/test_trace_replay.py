"""Replay equivalence: profiles from recordings match live profiles.

The paper's workflow promise is that collection and analysis decouple:
a run recorded once can be re-analyzed any number of times, by any bus
consumer, with byte-identical results.  These tests check that promise
end to end over real workloads (the profile JSON round-trips exactly)
and that the two-pass workflow executes the workload only once.
"""

import json

import pytest

from repro.baselines.gvprof import GvprofProfiler
from repro.collector.sampling import SamplingConfig
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.tool.workflow import run_recommended_workflow
from repro.trace_io import TraceReader, TraceReplayer
from repro.workloads import get_workload

WORKLOADS = ["rodinia/bfs", "rodinia/backprop", "darknet"]
#: Block sampling records thread ids with gaps: replay must rebuild the
#: block ids a v4 trace implies from the stored ids, not from a ramp.
BLOCK_SAMPLED = ["rodinia/bfs", "darknet", "lammps"]
#: Copy-heavy programs at full instrumentation: lammps re-uploads whole
#: staging buffers (delta-coded host arrays, zero-chunk streams); the
#: optimized lammps and darknet also upload prefixes, which stay out of
#: the delta chain.
COPY_HEAVY = [("lammps", "baseline"), ("lammps", "optimized"), ("darknet", "optimized")]
#: What a sharded replay must share with the serial one (counters are
#: per-shard sums).
_SHARD_EXACT = ("hits", "graph", "objects", "workload", "platform")


def _trace(tmp_path, name):
    return str(tmp_path / (name.replace("/", "_") + ".vetrace"))


@pytest.mark.parametrize(
    "name, block_period",
    [pytest.param(name, 1, id=name) for name in WORKLOADS]
    + [pytest.param(name, 2, id=f"{name}-block-sampled") for name in BLOCK_SAMPLED],
)
def test_profile_from_trace_matches_direct_profile(tmp_path, name, block_period):
    path = _trace(tmp_path, name)
    config = ToolConfig(
        sampling=SamplingConfig(block_sampling_period=block_period)
    )
    workload = get_workload(name)(scale=0.25)
    direct = ValueExpert(config).profile(workload, name=name, record_path=path)
    replayed = ValueExpert(config).profile_from_trace(path)
    assert replayed.to_json() == direct.to_json()
    if block_period > 1:
        with TraceReader(path) as reader:
            records = [
                record
                for _, meta, _ in reader.events()
                for record in meta.get("records", ())
            ]
        assert records
        # Sampled thread ids may be stored raw; block ids stay implied.
        assert all("blk" in record for record in records)


@pytest.mark.parametrize(
    "name, variant", COPY_HEAVY, ids=[f"{n}-{v}" for n, v in COPY_HEAVY]
)
def test_copy_heavy_recording_replays_serially_and_sharded(tmp_path, name, variant):
    path = _trace(tmp_path, f"{name}-{variant}")
    workload = get_workload(name)(scale=0.25)
    program = workload.run_baseline if variant == "baseline" else workload.run_optimized
    live = ValueExpert(ToolConfig()).profile(program, name=name, record_path=path)
    serial = ValueExpert(ToolConfig()).profile_from_trace(path)
    assert serial.to_json() == live.to_json()
    sharded = json.loads(
        ValueExpert(ToolConfig()).profile_from_trace(path, shards=2).to_json()
    )
    expected = json.loads(live.to_json())
    for section in _SHARD_EXACT:
        assert sharded[section] == expected[section], section


@pytest.mark.parametrize("name", WORKLOADS)
def test_recording_does_not_perturb_the_profile(tmp_path, name):
    path = _trace(tmp_path, name)
    recorded = ValueExpert(ToolConfig()).profile(
        get_workload(name)(scale=0.25), name=name, record_path=path
    )
    plain = ValueExpert(ToolConfig()).profile(
        get_workload(name)(scale=0.25), name=name
    )
    assert recorded.to_json() == plain.to_json()


def test_trace_header_and_footer_describe_the_run(tmp_path):
    name = "rodinia/bfs"
    path = _trace(tmp_path, name)
    ValueExpert(ToolConfig()).profile(
        get_workload(name)(scale=0.25), name=name, record_path=path
    )
    with TraceReader(path) as reader:
        assert reader.header["workload"] == name
        assert reader.header["platform"] == "RTX 2080 Ti"
        assert reader.footer["events"] > 0
        assert {k["name"] for k in reader.footer["kernels"]} == {
            "Kernel",
            "Kernel2",
        }


def test_gvprof_baseline_over_replay_matches_live(tmp_path):
    name = "rodinia/bfs"
    path = _trace(tmp_path, name)
    workload = get_workload(name)(scale=0.25)
    ValueExpert(ToolConfig()).profile(workload, name=name, record_path=path)

    from repro.gpu.runtime import GpuRuntime

    live = GvprofProfiler()
    rt = GpuRuntime()
    live.attach(rt)
    get_workload(name)(scale=0.25).run_baseline(rt)
    live.detach()

    over_replay = GvprofProfiler()
    with TraceReplayer(path) as replayer:
        over_replay.attach(replayer)
        replayer.replay()
        over_replay.detach()

    assert over_replay.report.summary() == live.report.summary()
    assert (
        over_replay.report.records_transferred
        == live.report.records_transferred
    )
    assert set(over_replay.report.per_pc) == set(live.report.per_pc)


def test_workflow_fine_pass_replays_instead_of_rerunning(tmp_path):
    name = "rodinia/backprop"
    runs = []
    workload = get_workload(name)(scale=0.25)

    class CountingWorkload:
        name = workload.name

        def run_baseline(self, rt):
            runs.append(rt)
            workload.reset()
            workload.run_baseline(rt)

    result = run_recommended_workflow(CountingWorkload())
    assert result.selected_kernels, "backprop should select fine kernels"
    assert result.fine_profile is not None
    assert len(runs) == 1, "the fine pass must replay, not re-run"


def test_workflow_fine_replay_matches_live_fine_pass(tmp_path):
    name = "rodinia/backprop"
    result = run_recommended_workflow(get_workload(name)(scale=0.25))
    assert result.fine_profile is not None
    live_fine = ValueExpert(
        ToolConfig(
            coarse=False,
            fine=True,
            sampling=SamplingConfig(
                kernel_sampling_period=1,
                block_sampling_period=1,
                kernel_filter=result.selected_kernels,
            ),
        )
    ).profile(get_workload(name)(scale=0.25).run_baseline, name=name)
    assert result.fine_profile.to_json() == live_fine.to_json()


def test_workflow_keeps_trace_when_asked(tmp_path):
    name = "rodinia/backprop"
    path = _trace(tmp_path, name)
    result = run_recommended_workflow(
        get_workload(name)(scale=0.25), trace_path=path
    )
    assert result.trace_path == path
    with TraceReader(path) as reader:
        assert reader.footer["events"] > 0


def test_replay_with_sampling_narrows_the_recording(tmp_path):
    """Fine replay with block sampling is a strict subset of the trace."""
    name = "rodinia/bfs"
    path = _trace(tmp_path, name)
    ValueExpert(ToolConfig()).profile(
        get_workload(name)(scale=0.25), name=name, record_path=path
    )
    sampled_config = ToolConfig(
        coarse=False,
        fine=True,
        sampling=SamplingConfig(
            kernel_sampling_period=2, block_sampling_period=2
        ),
    )
    sampled = ValueExpert(sampled_config)
    profile = sampled.profile_from_trace(path)
    counters = sampled.last_collector.counters
    assert counters.instrumented_launches < counters.total_launches
    assert profile.workload_name == name
