"""Sharded replay + format-v2 encoding — the PR's two guarded claims.

* **on-disk shrink** is measured on ``rodinia/bfs``, a snapshot-heavy
  workload: its level-by-level frontier sweeps rewrite mostly-unchanged
  mask/cost buffers, so v2's XOR delta cancels repeated post-launch
  snapshots and per-frame zlib folds what remains.  One run is recorded
  by a v1 and a v2 recorder attached to the *same* runtime, so both
  traces describe the identical event stream; v2 must be at least 3x
  smaller.

* **analysis speedup** is measured on a synthetic many-small-objects
  workload, where per-object pattern analysis (fine detectors, coarse
  snapshot comparisons, redundancy fractions) dominates the replay —
  exactly the work a shard's passive prefix skips.  Replaying in 4
  shards must beat a serial replay by at least 2x on the critical path.

The speedup is the parallel critical-path model: each shard worker is
timed in isolation (min over passes) and the slowest worker bounds the
parallel wall time.  On a host with at least as many cores as shards
the pool overlaps workers and approaches this bound; with fewer cores
they timeshare, so the pooled wall time is reported alongside, with
the host's core count, but not asserted.
"""

import os
import time

import numpy as np
from conftest import SCALE, emit

from repro.analysis.sharding import PREFIX_COST_RATIO, plan_shards, run_shard
from repro.gpu.dtypes import DType
from repro.gpu.kernel import kernel
from repro.gpu.runtime import GpuRuntime
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.trace_io import TraceReader, TraceRecorder
from repro.workloads import get_workload

NBUF = max(128, int(256 * SCALE))
GROUP = NBUF // 4  # objects rewritten per launch
ELEMS = 64  # float32 elements per object
LAUNCHES = max(48, int(96 * SCALE))
SHARDS = 4
PASSES = 3
SNAPSHOT_WORKLOAD = "rodinia/bfs"


@kernel("TileWrite")
def tile_write(ctx, *bufs):
    tid = ctx.global_ids
    for slot, buf in enumerate(bufs):
        ctx.store(
            buf,
            tid,
            tid.astype(np.float32) * np.float32(1.5 + slot),
            tids=tid,
        )


def _analysis_workload(rt):
    """Many small objects, each fully rewritten per launch: the replay
    cost is per-object pattern analysis, which shards parallelize.

    The written group rotates and each buffer's values change with its
    slot, so every launch frame carries fresh payloads of equal size —
    keeping the byte-weighted shard planner's event ranges balanced.
    """
    bufs = [rt.malloc(ELEMS, DType.FLOAT32, f"tile{i}") for i in range(NBUF)]
    for launch in range(LAUNCHES):
        group = [bufs[(launch * 7 + k) % NBUF] for k in range(GROUP)]
        rt.launch(tile_write, 1, ELEMS, *group)
    for buf in bufs:
        rt.free(buf)


def _record_both_versions(tmpdir):
    """Record one snapshot-heavy run through a v1 and a v2 recorder."""
    v1_path = os.path.join(tmpdir, "snapshot_v1.vetrace")
    v2_path = os.path.join(tmpdir, "snapshot_v2.vetrace")
    workload = get_workload(SNAPSHOT_WORKLOAD)(scale=min(1.0, SCALE))
    rt = GpuRuntime()
    v1 = TraceRecorder(v1_path, header={}, instrument="all", version=1)
    v2 = TraceRecorder(v2_path, header={}, instrument="all", version=2)
    v1.attach(rt)
    v2.attach(rt)
    try:
        workload.run_baseline(rt)
    finally:
        v1.detach()
        v2.detach()
        v1.close()
        v2.close()
    return v1_path, v2_path


def _time_serial(path):
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        ValueExpert(ToolConfig()).profile_from_trace(path)
        best = min(best, time.perf_counter() - start)
    return best


def _time_shards(path):
    """Per-shard isolated timings (min over passes) plus shard ranges."""
    with TraceReader(path) as reader:
        index = reader.frame_index(decoded=True)
    ranges = plan_shards(
        [nbytes for _, _, nbytes in index],
        SHARDS,
        prefix_cost=PREFIX_COST_RATIO,
    )
    timings = []
    for i, (start, stop) in enumerate(ranges):
        best = min(
            run_shard(path, i, start, stop, ToolConfig()).elapsed_s
            for _ in range(PASSES)
        )
        timings.append((start, stop, best))
    return timings


def test_format_v2_shrink(tmp_path, artifact_dir):
    v1_path, v2_path = _record_both_versions(str(tmp_path))
    v1_bytes = os.path.getsize(v1_path)
    v2_bytes = os.path.getsize(v2_path)
    shrink = v1_bytes / v2_bytes

    text = "\n".join(
        [
            "format v2 on-disk shrink (zlib + post-launch XOR delta)",
            f"workload: {SNAPSHOT_WORKLOAD} scale={min(1.0, SCALE)}",
            f"trace v1: {v1_bytes / 1e6:8.2f} MB",
            f"trace v2: {v2_bytes / 1e6:8.2f} MB",
            f"shrink: {shrink:.2f}x (required >= 3.0x)",
        ]
    )
    emit(artifact_dir, "shard_scaling_shrink.txt", text)
    assert shrink >= 3.0


def test_sharded_replay_speedup(tmp_path, artifact_dir):
    path = str(tmp_path / "analysis.vetrace")
    ValueExpert(ToolConfig()).profile(
        _analysis_workload, name="tile-rewrite", record_path=path
    )

    serial = _time_serial(path)
    timings = _time_shards(path)
    critical = max(elapsed for _, _, elapsed in timings)
    speedup = serial / critical

    # End-to-end pooled replay: proves the public path works and shows
    # the merge cost; wall time is informational (workers timeshare on
    # a host with fewer cores than shards).
    tool = ValueExpert(ToolConfig())
    start = time.perf_counter()
    tool.profile_from_trace(path, shards=SHARDS)
    pooled_wall = time.perf_counter() - start
    assert tool.last_shard_results is not None

    lines = [
        f"sharded replay speedup at {SHARDS} shards",
        f"objects={NBUF} elems={ELEMS} launches={LAUNCHES} "
        f"rewritten/launch={GROUP}",
        f"serial replay: {serial * 1e3:8.2f} ms",
    ]
    for i, (begin, end, elapsed) in enumerate(timings):
        lines.append(
            f"shard {i}: events [{begin},{end}) {elapsed * 1e3:8.2f} ms"
        )
    lines += [
        f"critical path: {critical * 1e3:8.2f} ms",
        f"speedup: {speedup:.2f}x (critical-path model, required >= 2.0x)",
        f"pooled wall time: {pooled_wall * 1e3:8.2f} ms "
        f"(informational; {SHARDS} workers on a {os.cpu_count()}-core host)",
    ]
    emit(artifact_dir, "shard_scaling.txt", "\n".join(lines))
    assert speedup >= 2.0
