"""Smoke test of the benchmark at a tiny scale.

    PYTHONPATH=src python -m pytest bench -q

Runs all six workloads once through ``run.py --scale --rounds`` (one
set, one round each) and checks the output, the failure accounting and
``compare.py``.
"""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load(name: str):
    """Import a bench/ script as a module."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses look their module up while it loads.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = load("run")
compare = load("compare")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny two-phase run of every workload: (stdout, results, exit)."""
    out = tmp_path_factory.mktemp("bench") / "results.json"
    argv = [
        "--seed", "0", "--seconds", "0", "--sets", "1",
        "--scale", "0.05", "--rounds", "1", "--out", str(out),
    ]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    return buffer.getvalue(), json.loads(out.read_text()), code


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, results, code = smoke
    benchmark = run.load_benchmark()
    assert code == 0
    printed = {tuple(line.split()[:2]): line.split() for line in stdout.splitlines()}
    for workload in benchmark["workloads"]:
        for spec in benchmark["end_to_end"] + benchmark["per_layer"]:
            fields = printed[(workload["name"], spec["name"])]
            assert fields[3] == spec["unit"]
            float(fields[2])


def test_no_operation_fails(smoke):
    _, results, _ = smoke
    assert set(results["workloads"]) == {w["name"] for w in run.load_benchmark()["workloads"]}
    for entry in results["workloads"].values():
        failed, attempted = compare.fail_ratio(entry)
        assert attempted > 0 and failed == 0


def test_results_describe_the_host(smoke):
    _, results, _ = smoke
    host = results["host"]
    for key in ("git_rev", "cpu_count", "sched_getaffinity", "python", "numpy", "seed"):
        assert key in host
    untraced = results["workloads"]["live_full"]["sets"][0]["untraced"]
    assert untraced["samples"]["round_s"] and untraced["scale"] == 0.05


def test_forced_digest_mismatch_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    child = load("child")
    spec = child.Spec(("rodinia/bfs",), "live")
    bench = child.Bench(spec, seed=0, scale=0.05, workdir=str(tmp_path))
    bench.set_up()
    bench.round()
    assert (bench.attempted, bench.failed) == (1, 0)
    bench.references["rodinia/bfs"] = "0" * 64
    bench.round()
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "digest" in bench.errors[0]


def test_failed_operations_make_the_run_fail(monkeypatch, capsys):
    names = [spec["name"] for spec in run.load_benchmark()["end_to_end"]]
    outcome = {
        "metrics": {name: 1.0 for name in names},
        "samples": {name: [1.0] for name in names},
        "attempted": 4, "failed": 1, "errors": ["darknet: digest differs"],
    }
    monkeypatch.setattr(run, "run_workload", lambda *args, **kwargs: outcome)
    code = run.main(["--workload", "live_full", "--seed", "0", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and (last["attempted"], last["failed"]) == (4, 1)


def slowed(results: dict, factor: float) -> dict:
    """``results`` with every replay round ``factor`` times slower."""
    slower = copy.deepcopy(results)
    untraced = slower["workloads"]["replay"]["sets"][0]["untraced"]
    untraced["metrics"]["round_s"] *= factor
    untraced["samples"]["round_s"] = [v * factor for v in untraced["samples"]["round_s"]]
    return slower


def test_compare_passes_identical_and_flags_slower_rounds(smoke):
    _, results, _ = smoke
    lines, regressed = compare.compare(results, results)
    assert not regressed and len(lines) == len(results["workloads"])
    # 20% slower stays inside round_s's 25% bound; 30% does not.
    lines, regressed = compare.compare(results, slowed(results, 1.2))
    assert not regressed
    assert "round_s +20.0% ok" in next(l for l in lines if l.startswith("replay"))
    lines, regressed = compare.compare(results, slowed(results, 1.3))
    assert regressed
    assert "round_s +30.0% REGRESSION" in next(l for l in lines if l.startswith("replay"))
    assert all("REGRESSION" not in line for line in lines if not line.startswith("replay"))
