"""End-to-end: record a workload, extract its summary, drive the CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.trace_io import VERSION
from repro.tracediff import diff_traces, extract_summary


@pytest.fixture(scope="module")
def bfs_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "bfs.vetrace")
    assert cli_main(
        ["record", "rodinia/bfs", "--scale", "0.25", "--out", path]
    ) == 0
    return path


def test_extract_summary_facts(bfs_trace):
    summary = extract_summary(bfs_trace)
    assert summary.workload == "rodinia/bfs"
    assert summary.version == VERSION
    assert summary.kernels, "no kernels extracted"
    for name, function in summary.kernels.items():
        assert function.instructions, name
    # Every kernel the footer knows appears as a diffable site.
    for name in summary.kernels:
        assert name in summary.sites
        assert summary.sites[name].invocations > 0
    # The recording's profile produced at least one pattern hit somewhere.
    assert any(site.hits for site in summary.sites.values())
    assert summary.profile is not None


def test_self_diff_is_clean(bfs_trace):
    old = extract_summary(bfs_trace)
    new = extract_summary(bfs_trace)
    diff = diff_traces(old, new)
    assert diff.clean, [d.render() for d in diff.deltas]
    assert not diff.matching.added and not diff.matching.removed
    assert all(
        m.verdict.value == "confident" for m in diff.matching.matches
    )


def test_cli_self_diff_exits_zero(bfs_trace, tmp_path, capsys):
    report = str(tmp_path / "diff.json")
    code = cli_main(
        ["trace-diff", bfs_trace, bfs_trace, "--json", report]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no deltas" in out
    payload = json.loads(open(report).read())
    assert payload["deltas"] == []
    assert payload["old"]["workload"] == "rodinia/bfs"
    assert payload["matching"]["matches"]


def test_cli_write_baseline_requires_baseline_path(bfs_trace, capsys):
    code = cli_main(["trace-diff", bfs_trace, bfs_trace, "--write-baseline"])
    assert code == 2
    assert "--write-baseline requires --baseline" in capsys.readouterr().err


def test_cli_rejects_unknown_fail_on(bfs_trace, capsys):
    code = cli_main(
        ["trace-diff", bfs_trace, bfs_trace, "--fail-on", "bogus"]
    )
    assert code != 0
    assert "unknown --fail-on" in capsys.readouterr().err


def test_cli_write_and_reuse_baseline(bfs_trace, tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    code = cli_main(
        [
            "trace-diff",
            bfs_trace,
            bfs_trace,
            "--baseline",
            baseline,
            "--write-baseline",
            "--note",
            "self-diff accepts nothing",
        ]
    )
    assert code == 0
    payload = json.loads(open(baseline).read())
    assert payload["version"] == 1
    assert payload["accepted"] == []
    capsys.readouterr()
    # Applying the (empty) baseline to the clean pair still exits 0.
    assert cli_main(
        ["trace-diff", bfs_trace, bfs_trace, "--baseline", baseline]
    ) == 0
