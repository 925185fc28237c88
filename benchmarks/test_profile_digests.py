"""Digests of live profiles: the byte-identity gate for changes that
keep profiles.

Every workload is profiled live at scale 0.5, with seeds 0 and 1, once
as its baseline program and once optimized (its Table 4 fixes
applied).  Each profile is reduced to the sha256 of its JSON form
without its counters (collection strategies may count differently; the
hits, graph and objects must not change), with the checkout's source
directory stripped from the source locations the hits carry, so two
checkouts at different paths write the same file.

The sign of a zero is not folded.  When a view's zeros mix -0.0 and
+0.0, ``np.unique`` reports the merged zero with whichever sign its
sort puts first, and numpy picks that sort by CPU feature; the value
summaries make that zero +0.0 (``repro.patterns.base.ViewSummary``),
so the file is the same with AVX-512 on and off.

The test regenerates ``benchmarks/out/profile_digests.txt``; CI runs it
and fails on any difference from the committed file, as it does for the
overlap, trace-diff and static-lint baselines.  The scale is pinned
(not ``REPRO_BENCH_SCALE``): the committed file documents one recipe.
"""

import hashlib
import json
import os

import repro
from conftest import emit

from repro import ToolConfig, ValueExpert
from repro.workloads import get_workload, workload_names

SCALE = 0.5
SEEDS = (0, 1)

#: The source directory every recorded source location starts with.
SOURCE_ROOT = os.path.dirname(os.path.dirname(repro.__file__)) + os.sep


def profile_digest(profile) -> str:
    """sha256 of the profile's JSON form without counters or the
    checkout path."""
    data = profile.to_dict()
    data.pop("counters", None)
    text = json.dumps(data, sort_keys=True, default=str).replace(SOURCE_ROOT, "")
    return hashlib.sha256(text.encode()).hexdigest()


def _profile(name: str, seed: int, variant: str):
    workload = get_workload(name)(scale=SCALE, seed=seed)
    if variant == "baseline":
        program = workload.run_baseline
    else:
        program = workload.run_optimized
    return ValueExpert(ToolConfig()).profile(program, name=name)


def test_profile_digests(artifact_dir):
    lines = [
        f"# sha256 of each live profile without counters, scale {SCALE}",
        "# workload seed variant digest",
    ]
    names = workload_names()
    for name in names:
        for seed in SEEDS:
            for variant in ("baseline", "optimized"):
                digest = profile_digest(_profile(name, seed, variant))
                lines.append(f"{name} {seed} {variant} {digest}")
    emit(artifact_dir, "profile_digests.txt", "\n".join(lines))
    assert len(lines) == 2 + len(names) * len(SEEDS) * 2
