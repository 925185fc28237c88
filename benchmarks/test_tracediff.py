"""The trace-diff regression sentinel on its reference corpus.

The corpus is two recordings of ``pytorch/resnet50_dp``:

* **OLD** — the optimized variant, where the SINGLE_ZERO fix skips the
  frozen-layer allreduce (the p2p gradient exchange and the frozen
  ``dp_apply_kernel`` launches);
* **NEW** — the baseline variant, which still performs it.

Diffing OLD against NEW therefore *re-introduces* the paper's known
redundancy, and the sentinel must (a) match every kernel across the two
recordings confidently by CFG similarity, (b) flag the reintroduced
allreduce as ``NEW_REDUNDANCY`` with a nonzero CLI exit, and (c) exit
zero once the committed baseline accepts exactly those deltas.

The test regenerates ``benchmarks/out/tracediff_baseline.json`` from the
fresh corpus; CI commits-or-fails on the difference, the same contract
every other committed artifact has.  The corpus scale is pinned (not
``REPRO_BENCH_SCALE``): delta *keys* are scale-free, but the committed
baseline documents one exact reproduction recipe.
"""

import json

import pytest
from conftest import emit

from repro.cli import main as cli_main
from repro.tracediff import Baseline, diff_traces, extract_summary, save_baseline

#: The recipe the committed baseline was produced with.
CORPUS_WORKLOAD = "pytorch/resnet50_dp"
CORPUS_SCALE = "0.25"
BASELINE_NOTE = (
    "pytorch/resnet50_dp optimized->baseline corpus: the frozen-layer "
    "allreduce (p2p exchange + apply) is the known, accepted redundancy"
)

#: Deltas the regression must at minimum produce: the p2p exchange
#: copies values that never change, and the frozen apply kernel writes
#: zeros/unchanged weights.
EXPECTED_KEYS = {
    "new-redundancy:cudaMemcpy[p2p]:redundant values:dp.recv.frozen",
    "new-redundancy:dp_apply_kernel:single zero:dp.frozen.grad",
    "new-redundancy:dp_apply_kernel:redundant values:dp.frozen.weight",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tracediff_corpus")
    old = str(directory / "dp_optimized.vetrace")
    new = str(directory / "dp_baseline.vetrace")
    assert cli_main(
        ["record", CORPUS_WORKLOAD, "--scale", CORPUS_SCALE,
         "--optimized", "--out", old]
    ) == 0
    assert cli_main(
        ["record", CORPUS_WORKLOAD, "--scale", CORPUS_SCALE, "--out", new]
    ) == 0
    return old, new


def test_sentinel_flags_reintroduced_redundancy(corpus, artifact_dir):
    old_path, new_path = corpus
    diff = diff_traces(
        extract_summary(old_path), extract_summary(new_path)
    )

    # (a) every kernel pairs confidently across the recordings.
    assert not diff.matching.removed and not diff.matching.added
    assert diff.matching.matches, "no kernels matched"
    for match in diff.matching.matches:
        assert match.verdict.value == "confident", match.to_dict()

    # (b) the reintroduced frozen-layer allreduce is flagged.
    keys = {delta.key for delta in diff.deltas}
    missing = EXPECTED_KEYS - keys
    assert not missing, f"expected deltas not flagged: {sorted(missing)}"
    assert all(
        key.startswith(("new-redundancy:", "grown:")) for key in keys
    ), sorted(keys)

    # (c) regenerate the committed baseline; CI diffs it against git.
    baseline = Baseline.from_diff(diff, note=BASELINE_NOTE)
    save_baseline(
        str(artifact_dir / "tracediff_baseline.json"), baseline
    )
    emit(
        artifact_dir,
        "tracediff_report.txt",
        "\n".join(
            [
                f"trace-diff corpus: {CORPUS_WORKLOAD} optimized -> "
                f"baseline @ scale {CORPUS_SCALE}",
                f"kernels matched: {len(diff.matching.matches)}",
                f"deltas flagged: {len(diff.deltas)}",
            ]
            + [f"  {delta.key}" for delta in diff.deltas]
        ),
    )


def test_cli_gate_and_baseline_acceptance(corpus, artifact_dir, tmp_path,
                                          capsys):
    old_path, new_path = corpus
    report = str(tmp_path / "tracediff_report.json")

    # Without a baseline the reintroduced redundancy fails the gate.
    assert cli_main(
        ["trace-diff", old_path, new_path, "--json", report]
    ) == 1
    captured = capsys.readouterr()
    assert "new-redundancy" in captured.out
    payload = json.loads(open(report).read())
    assert payload["deltas"], "JSON artifact lost the deltas"

    # With the committed baseline every delta is accepted: exit 0.
    baseline_path = str(artifact_dir / "tracediff_baseline.json")
    assert cli_main(
        ["trace-diff", old_path, new_path, "--baseline", baseline_path]
    ) == 0
    accepted = capsys.readouterr().out
    assert "suppressed by the baseline" in accepted
