"""Tests for the pattern engine composition."""

import numpy as np

from repro.gpu.dtypes import DType
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    SnapshotPair,
    ViewSummary,
)
from repro.patterns.coarse import (
    detect_duplicate_values,
    redundant_values_hit,
    unchanged_fraction,
)
from repro.patterns.engine import PatternEngine


def _view(values, dtype=DType.FLOAT32):
    values = np.asarray(values)
    return ObjectAccessView(
        object_label="obj",
        api_ref="api",
        values=values,
        addresses=np.arange(values.size, dtype=np.uint64) * dtype.itemsize,
        dtype=dtype,
        itemsize=dtype.itemsize,
    )


def test_engine_runs_all_fine_detectors():
    engine = PatternEngine()
    # Small-int values: frequent? no; heavy yes; structured yes.
    values = (np.arange(64) * 2).astype(np.int32)
    hits = engine.analyze_view(_view(values, DType.INT32))
    patterns = {hit.pattern for hit in hits}
    assert Pattern.HEAVY_TYPE in patterns
    assert Pattern.STRUCTURED_VALUES in patterns


def test_engine_zero_view_reports_value_patterns():
    engine = PatternEngine()
    hits = engine.analyze_view(_view(np.zeros(64, np.float32)))
    patterns = {hit.pattern for hit in hits}
    assert {
        Pattern.FREQUENT_VALUES,
        Pattern.SINGLE_VALUE,
        Pattern.SINGLE_ZERO,
    } <= patterns


def test_engine_uses_config():
    engine = PatternEngine(PatternConfig(min_accesses=1000))
    hits = engine.analyze_view(_view(np.zeros(64, np.float32)))
    assert hits == []


def test_engine_snapshot_analysis():
    """The analyzer's snapshot check under the engine's configuration."""
    engine = PatternEngine()
    pair = SnapshotPair(np.zeros(32), np.zeros(32))
    hit = redundant_values_hit(
        unchanged_fraction(pair), "obj", "api", engine.config
    )
    assert hit is not None
    assert hit.pattern is Pattern.REDUNDANT_VALUES


def test_engine_duplicate_analysis():
    """Coarse duplicate grouping stays outside the fine-view engine."""
    assert not hasattr(PatternEngine(), "analyze_duplicates")
    hits = detect_duplicate_values(
        [("a", np.zeros(8)), ("b", np.zeros(8))], "api"
    )
    assert len(hits) == 1
    assert hits[0].pattern is Pattern.DUPLICATE_VALUES


def test_engine_is_pure():
    """Two engines over the same input produce the same hits."""
    values = np.zeros(64, np.float32)
    first = PatternEngine().analyze_view(_view(values))
    second = PatternEngine().analyze_view(_view(values))
    assert [h.pattern for h in first] == [h.pattern for h in second]


def test_detectors_share_one_summary(monkeypatch):
    """One np.unique per view: every detector reads the same summary."""
    built = []
    original = ViewSummary.of.__func__

    def counting(cls, values):
        built.append(values.size)
        return original(cls, values)

    monkeypatch.setattr(ViewSummary, "of", classmethod(counting))
    values = np.arange(64, dtype=np.float32) * 1.5
    hits = PatternEngine().analyze_view(_view(values))
    assert built == [64]
    assert Pattern.STRUCTURED_VALUES in {hit.pattern for hit in hits}
