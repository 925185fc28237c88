"""Tests for the command-line interface."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[2]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rodinia/bfs" in out
    assert "darknet" in out
    assert "Table 1 patterns" in out


def test_profile_command(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    json_path = tmp_path / "profile.json"
    code = main([
        "profile", "rodinia/backprop",
        "--scale", "0.125",
        "--coarse-only",
        "--dot", str(dot),
        "--json", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert dot.read_text().startswith("digraph")
    data = json.loads(json_path.read_text())
    assert data["workload"] == "rodinia/backprop"


def test_profile_platform_selection(capsys):
    main(["profile", "rodinia/hotspot", "--scale", "0.125",
          "--platform", "a100", "--coarse-only"])
    assert "A100" in capsys.readouterr().out


def test_profile_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["profile", "not-a-workload"])


def test_speedup_command(capsys):
    assert main(["speedup", "rodinia/backprop", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "RTX 2080 Ti" in out and "A100" in out
    assert "kernel" in out and "memory" in out


def test_figure3_command(capsys):
    assert main(["figure3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3b" in out


def test_table1_command_small(capsys):
    assert main(["table1", "--scale", "0.125"]) == 0
    out = capsys.readouterr().out
    assert "rodinia/bfs" in out


def test_parser_covers_all_experiments():
    parser = build_parser()
    for command in ("table1", "table3", "table4", "table5",
                    "figure2", "figure3", "figure6", "casestudies"):
        args = parser.parse_args([command])
        assert args.command == command


def test_view_command_roundtrips(capsys, tmp_path):
    json_path = tmp_path / "p.json"
    html_path = tmp_path / "p.html"
    main([
        "profile", "rodinia/hotspot", "--scale", "0.125",
        "--coarse-only", "--json", str(json_path),
    ])
    capsys.readouterr()
    assert main(["view", str(json_path), "--html", str(html_path)]) == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert html_path.read_text().startswith("<!DOCTYPE html>")


def test_fine_only_flag(capsys):
    assert main([
        "profile", "rodinia/huffman", "--scale", "0.125",
        "--fine-only", "--hot-kernels-only", "--kernel-period", "2",
    ]) == 0
    assert "ValueExpert report" in capsys.readouterr().out


def test_record_and_replay_commands(capsys, tmp_path):
    trace = tmp_path / "bfs.vetrace"
    assert main([
        "record", "rodinia/bfs", "--scale", "0.125", "--out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and str(trace) in out
    assert trace.exists()

    json_path = tmp_path / "replayed.json"
    assert main(["replay", str(trace), "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert "rodinia/bfs" in out
    data = json.loads(json_path.read_text())
    assert data["workload"] == "rodinia/bfs"


def test_replay_gvprof_command(capsys, tmp_path):
    trace = tmp_path / "bfs.vetrace"
    main(["record", "rodinia/bfs", "--scale", "0.125", "--out", str(trace)])
    capsys.readouterr()
    assert main(["replay", str(trace), "--gvprof"]) == 0
    assert "GVProf report" in capsys.readouterr().out


def test_replay_kernel_filter(capsys, tmp_path):
    trace = tmp_path / "bp.vetrace"
    main(["record", "rodinia/backprop", "--scale", "0.125",
          "--out", str(trace)])
    capsys.readouterr()
    assert main([
        "replay", str(trace), "--fine-only",
        "--kernels", "bpnn_adjust_weights_cuda",
    ]) == 0
    assert "ValueExpert report" in capsys.readouterr().out


def test_record_default_output_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["record", "rodinia/bfs", "--scale", "0.125"]) == 0
    assert (tmp_path / "rodinia_bfs.vetrace").exists()


#: ``--scale`` defaults that differ from 0.5.
SCALE_DEFAULTS = {"lint": 0.25, "speedup": 1.0}


def _documented_command_lines():
    """Every ``python -m repro[.tool]`` command line in CI and the docs'
    code blocks, shell syntax stripped and variables set to 0."""
    texts = [(ROOT / ".github/workflows/ci.yml").read_text()]
    for doc in sorted((ROOT / "docs").glob("*.md")):
        texts += re.findall(r"```[a-z]*\n(.*?)```", doc.read_text(), re.S)
    lines = []
    for text in texts:
        text = text.replace("\\\n", " ")
        for match in re.finditer(r"python -m repro(?:\.tool)? (.*)", text):
            line = re.split(r";|\s#|&&|\|", match.group(1))[0]
            line = re.sub(r"\$\{?\w+\}?", "0", line)
            lines.append(" ".join(line.split()))
    return lines


COMMAND_LINES = _documented_command_lines()


def test_documented_command_lines_were_found():
    commands = {shlex.split(line)[0] for line in COMMAND_LINES}
    assert {"record", "replay", "trace-diff", "lint", "health"} <= commands


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_documented_command_line_parses(line):
    argv = shlex.split(line)
    args = build_parser().parse_args(argv)
    if "scale" in vars(args) and "--scale" not in argv:
        assert args.scale == SCALE_DEFAULTS.get(args.command, 0.5)


def test_both_entry_points_print_the_same_list():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = [
        subprocess.run(
            [sys.executable, "-m", module, "list"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for module in ("repro", "repro.tool")
    ]
    assert outputs[0] == outputs[1]
    assert "rodinia/bfs" in outputs[0]
