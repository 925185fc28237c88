"""repro.tracediff — value-pattern regression diffing of two recordings.

A one-shot profile can't tell you when a code change *introduces* a
redundancy or silently loses one you fixed.  This package closes that
loop: it extracts a diffable summary from each of two ``.vetrace``
recordings (:mod:`~repro.tracediff.extract`), matches their kernels
structurally by CFG subgraph similarity — robust to renames and PC
shifts (:mod:`repro.staticlint.similarity`, after Lim et al.) — and
diffs value-pattern facts per matched site
(:mod:`~repro.tracediff.differ`), classifying every change as
``NEW_REDUNDANCY``, ``LOST_PATTERN``, ``GROWN``, ``SHRUNK``, or a
kernel-level add/remove.

A committed baseline (:mod:`~repro.tracediff.baseline`,
``benchmarks/out/tracediff_baseline.json``) names the deltas a project
has accepted; CI runs ``python -m repro trace-diff OLD NEW
--baseline FILE`` and fails on any un-baselined regression, the same
way it already diffs ``staticlint_baseline.txt``.  See
``docs/trace-diff.md``.
"""

from repro.tracediff.baseline import (
    Baseline,
    apply_baseline,
    load_baseline,
    save_baseline,
    write_text_atomic,
)
from repro.tracediff.differ import (
    Delta,
    DeltaKind,
    DiffThresholds,
    TraceDiff,
    diff_traces,
)
from repro.tracediff.extract import (
    HitStats,
    SiteSummary,
    TraceSummary,
    extract_summary,
)
from repro.tracediff.report import render_diff

__all__ = [
    "Baseline",
    "apply_baseline",
    "Delta",
    "DeltaKind",
    "DiffThresholds",
    "HitStats",
    "SiteSummary",
    "TraceDiff",
    "TraceSummary",
    "diff_traces",
    "extract_summary",
    "load_baseline",
    "render_diff",
    "save_baseline",
    "write_text_atomic",
]
