"""Tests for the self-telemetry commands of the CLI (``stats``, ``trace``)."""

import json

import pytest

import repro.obs as telemetry
from repro.cli import main


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


WORKLOAD = "rodinia/bfs"
FAST = ["--scale", "0.1"]


def test_stats_prints_prometheus_and_stage_table(capsys):
    assert main(["stats", WORKLOAD] + FAST) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_collector_records_total counter" in out
    assert "self-overhead by stage" in out
    assert "collector.sweep" in out
    assert "repro self-telemetry" in out  # priced overhead row


def test_stats_json_format_to_file(tmp_path, capsys):
    dest = tmp_path / "metrics.json"
    assert main(
        ["stats", WORKLOAD, "--format", "json", "--out", str(dest)] + FAST
    ) == 0
    payload = json.loads(dest.read_text())
    assert len(payload) >= 10
    assert payload["repro_collector_records_total"]["kind"] == "counter"


def test_trace_emits_app_timeline_only(capsys):
    assert main(["trace", WORKLOAD] + FAST) == 0
    events = json.loads(capsys.readouterr().out)
    assert {e["pid"] for e in events} == {0}


def test_trace_self_merges_both_timelines(tmp_path):
    dest = tmp_path / "trace.json"
    assert main(
        ["trace", WORKLOAD, "--self", "--out", str(dest)] + FAST
    ) == 0
    events = json.loads(dest.read_text())
    pids = {e["pid"] for e in events}
    assert pids == {0, 1}
    self_spans = [e for e in events if e["pid"] == 1 and e["ph"] == "X"]
    assert any(e["name"] == "collector.launch" for e in self_spans)
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "modelled application" in names
    assert "repro self-telemetry" in names


def test_unknown_workload_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["stats", "no/such-workload"])
