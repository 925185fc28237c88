"""CLI coverage for the resilience surface: the ``health`` subcommand
and the one-line-error-or-debug-traceback hygiene of the CLI."""

import json

import pytest

import repro.cli as tool_cli
from repro.cli import main as repro_main
from repro.errors import AnalysisError, TraceError


def test_health_subcommand_clean_run(capsys):
    code = tool_cli.main(["health", "rodinia/bfs", "--scale", "0.25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "health of rodinia/bfs" in out
    assert "pristine" in out


def test_health_subcommand_chaos_exits_zero_and_writes_json(
    tmp_path, capsys
):
    """Degradation is loud in the report, invisible in the exit code."""
    artifact = tmp_path / "health.json"
    code = tool_cli.main(
        [
            "health", "rodinia/bfs", "--scale", "0.25",
            "--chaos", "--seed", "2", "--json", str(artifact),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "chaos seed 2" in out

    payload = json.loads(artifact.read_text())
    assert payload["workload"] == "rodinia/bfs"
    assert payload["plan"]["seed"] == 2
    assert "degradation" in payload["health"]


def test_repro_cli_one_line_error_on_repro_error(capsys):
    code = repro_main(["replay", "/no/such/file.vetrace"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_repro_cli_debug_reraises():
    with pytest.raises(TraceError):
        repro_main(["--debug", "replay", "/no/such/file.vetrace"])


def test_tool_cli_one_line_error_on_repro_error(capsys, monkeypatch):
    def boom(_args):
        raise AnalysisError("synthetic failure")

    monkeypatch.setattr(tool_cli, "_cmd_health", boom)
    code = tool_cli.main(["health", "rodinia/bfs"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "repro: error: synthetic failure\n"


def test_tool_cli_debug_reraises(monkeypatch):
    def boom(_args):
        raise AnalysisError("synthetic failure")

    monkeypatch.setattr(tool_cli, "_cmd_health", boom)
    with pytest.raises(AnalysisError):
        tool_cli.main(["--debug", "health", "rodinia/bfs"])


def test_health_shrink_requires_chaos(capsys):
    code = tool_cli.main(
        ["health", "rodinia/bfs", "--scale", "0.25", "--shrink"]
    )
    assert code == 2
    assert "--shrink requires --chaos" in capsys.readouterr().err


def test_health_shrink_prints_minimal_plan(tmp_path, capsys):
    """The shrinker zeroes fault fields greedily and prints a plan
    that still reproduces the run's symptom, as JSON."""
    from repro.resilience import FaultPlan

    artifact = tmp_path / "health.json"
    code = tool_cli.main(
        [
            "health", "rodinia/bfs", "--scale", "0.25",
            "--chaos", "--seed", "2", "--shrink", "--json", str(artifact),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "minimal plan reproducing" in out
    assert "shrink: " in out

    payload = json.loads(artifact.read_text())
    original = FaultPlan.from_dict(payload["plan"])
    shrunk = FaultPlan.from_dict(payload["shrunk_plan"])
    # Never grows, and what remains is a subset of the original fields.
    assert len(shrunk.active_fields()) <= len(original.active_fields())
    assert set(shrunk.active_fields()) <= set(original.active_fields())
    assert not shrunk.is_empty  # it still reproduces a symptom
