"""The linter sits on top of the binary layer, never underneath it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_profiler_import_loads_no_linter_module():
    out = _run(
        "import sys, repro.tool.valueexpert\n"
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.staticlint')))"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "first, second",
    [
        ("repro.staticlint", "repro.binary.slicing"),
        ("repro.binary.slicing", "repro.staticlint"),
    ],
)
def test_linter_and_slicer_import_in_either_order(first, second):
    out = _run(f"import {first}\nimport {second}\nprint('ok')")
    assert out.strip() == "ok"
