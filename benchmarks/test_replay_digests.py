"""Digests of replayed profiles: the byte-identity gate for replays.

Four workloads that together cover every recorded shape (darknet,
lammps, pytorch/resnet50_dp and rodinia/bfs, scale 0.25, seed 0) are
profiled live while a ``.vetrace`` of the run is recorded.  The
recording is then replayed serially, in 2 shards and in 4 shards, and
each replay must have the live profile's digest
(``test_profile_digests.profile_digest``: counters dropped, checkout
path stripped; counters of a sharded replay are per-range sums).  The
partial replay ``events=(12, None)`` must have one digest with 1 and
with 2 shards.

The test regenerates ``benchmarks/out/replay_digests.txt``, one line
per workload with the live digest and the partial replay's digest; CI
runs it and fails on any difference from the committed file.
"""

from conftest import emit
from test_profile_digests import profile_digest

from repro import ToolConfig, ValueExpert
from repro.workloads import get_workload

SCALE = 0.25
SEED = 0
WORKLOADS = ("darknet", "lammps", "pytorch/resnet50_dp", "rodinia/bfs")
#: The partial replay: a passive prefix over the first 12 events.
EVENTS = (12, None)


def _digests(name: str, path: str):
    """The live digest and the partial replay's digest of ``name``."""
    workload = get_workload(name)(scale=SCALE, seed=SEED)
    live = profile_digest(
        ValueExpert(ToolConfig()).profile(
            workload.run_baseline, name=name, record_path=path
        )
    )
    for shards in (1, 2, 4):
        replayed = ValueExpert(ToolConfig()).profile_from_trace(path, shards=shards)
        assert profile_digest(replayed) == live, (name, shards)
    partial = [
        profile_digest(
            ValueExpert(ToolConfig()).profile_from_trace(
                path, shards=shards, events=EVENTS
            )
        )
        for shards in (1, 2)
    ]
    assert partial[0] == partial[1], name
    return live, partial[0]


def test_replay_digests(artifact_dir, tmp_path):
    lines = [
        f"# sha256 of live and replayed profiles without counters, "
        f"scale {SCALE}, seed {SEED}",
        f"# workload live_digest events_{EVENTS[0]}_digest",
    ]
    for name in WORKLOADS:
        path = str(tmp_path / (name.replace("/", "_") + ".vetrace"))
        live, partial = _digests(name, path)
        lines.append(f"{name} {live} {partial}")
    emit(artifact_dir, "replay_digests.txt", "\n".join(lines))
