"""End-to-end workload linting and the ``repro lint`` CLI."""

import json

import pytest

import repro.cli as tool_cli
from repro.staticlint import Finding, LintResult, Severity, lint_kernel, lint_workload
from repro.errors import BinaryAnalysisError
from repro.workloads.rodinia.bfs import bfs_kernel, bfs_kernel2


def test_lint_workload_confirms_bfs_predictions_end_to_end():
    """The acceptance path: the hand-written bfs binary's static
    findings are dynamically confirmed by the profiled run."""
    result = lint_workload("rodinia/bfs", scale=0.1)
    assert result.workload == "rodinia/bfs"
    assert "Kernel" in result.kernels
    confirmed = {
        f.rule_id
        for f in result.findings
        if f.dynamic_status == "dynamically_confirmed"
    }
    # The mask clear stores an xor-zero; both scatters store one value.
    assert "constant-store" in confirmed
    assert "re-stored-value" in confirmed
    assert not result.has_errors
    assert result.crosscheck is not None
    assert len(result.crosscheck.confirmed) >= 2


def test_lint_workload_detaches_synthesized_binaries():
    assert bfs_kernel2.binary is None  # module-level invariant
    hand_written = bfs_kernel.binary
    result = lint_workload("rodinia/bfs", scale=0.1)
    assert "Kernel2" in result.synthesized
    # Synthesized for the lint, detached afterwards; the hand-written
    # binary is untouched.
    assert bfs_kernel2.binary is None
    assert bfs_kernel.binary is hand_written


def test_lint_workload_findings_carry_source_lines():
    result = lint_workload("rodinia/bfs", scale=0.1)
    confirmed = [
        f for f in result.findings if f.dynamic_status == "dynamically_confirmed"
    ]
    assert confirmed
    assert all(f.source_line is not None for f in confirmed)
    assert all("site_pc" in f.details for f in confirmed)


def test_lint_kernel_requires_a_binary():
    assert bfs_kernel2.binary is None
    with pytest.raises(BinaryAnalysisError):
        lint_kernel(bfs_kernel2)


def test_lint_result_serializes_counts_and_crosscheck():
    result = lint_workload("rodinia/bfs", scale=0.1)
    payload = result.to_dict()
    assert payload["workload"] == "rodinia/bfs"
    assert payload["counts"]["error"] == 0
    assert payload["counts"]["warning"] >= 2
    assert payload["crosscheck"]["confirmed"] >= 2
    assert all("rule_id" in f for f in payload["findings"])


def test_cli_lint_workload_writes_json_and_exits_zero(tmp_path):
    out = tmp_path / "lint.json"
    code = tool_cli.main(
        [
            "lint",
            "--workload",
            "rodinia/bfs",
            "--scale",
            "0.1",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["errors"] == 0
    assert payload["workloads"][0]["workload"] == "rodinia/bfs"
    rules = {
        f["rule_id"]
        for w in payload["workloads"]
        for f in w["findings"]
    }
    assert "constant-store" in rules


def test_cli_lint_exits_nonzero_on_error_findings(monkeypatch):
    def fake_lint_workload(name, scale, platform, rules, cross_profile):
        result = LintResult(workload=name)
        result.findings.append(
            Finding(
                pc=0,
                rule_id="type-conflict",
                severity=Severity.ERROR,
                message="boom",
                kernel="K",
            )
        )
        result.kernels.append("K")
        return result

    monkeypatch.setattr(tool_cli, "lint_workload", fake_lint_workload)
    assert tool_cli.main(["lint", "--workload", "rodinia/bfs"]) == 1


def test_cli_lint_requires_a_target(capsys):
    with pytest.raises(SystemExit):
        tool_cli.main(["lint"])
    capsys.readouterr()


def test_cli_lint_rules_subset(tmp_path):
    out = tmp_path / "lint.json"
    code = tool_cli.main(
        [
            "lint",
            "--workload",
            "rodinia/bfs",
            "--scale",
            "0.1",
            "--rules",
            "dead-code",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    rules = {
        f["rule_id"]
        for w in payload["workloads"]
        for f in w["findings"]
    }
    assert rules <= {"dead-code"}


def test_cli_lint_cross_checks_against_recorded_trace(tmp_path):
    """Record bfs once, then lint it against the trace replay."""
    from repro.tool.config import ToolConfig
    from repro.tool.valueexpert import ValueExpert
    from repro.workloads import get_workload

    trace = tmp_path / "bfs.vetrace"
    workload = get_workload("rodinia/bfs")(scale=0.1)
    ValueExpert(ToolConfig()).profile(
        workload.run_baseline, name=workload.name, record_path=str(trace)
    )
    out = tmp_path / "lint.json"
    code = tool_cli.main(
        [
            "lint",
            "--workload",
            "rodinia/bfs",
            "--scale",
            "0.1",
            "--cross-check",
            str(trace),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    crosscheck = payload["workloads"][0]["crosscheck"]
    assert crosscheck["confirmed"] >= 2


def test_lint_emits_telemetry_when_enabled():
    import repro.obs as telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        lint_workload("rodinia/bfs", scale=0.1)
        exposition = telemetry.registry().to_prometheus()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert "repro_staticlint_functions_total" in exposition
    assert "repro_staticlint_findings_total" in exposition
    assert "repro_staticlint_workloads_total" in exposition
