"""Tests for frequent values, single value, single zero (Defs 3.3-3.5)."""

import numpy as np
import pytest

from repro.gpu.dtypes import DType
from repro.patterns.base import ObjectAccessView, Pattern, PatternConfig
from repro.patterns.fine import (
    detect_frequent_values,
    detect_single_value,
    detect_single_zero,
    run_fine_value_detectors,
)


def _view(values, dtype=DType.FLOAT32):
    values = np.asarray(values)
    return ObjectAccessView(
        object_label="obj",
        api_ref="api",
        values=values,
        addresses=np.arange(values.size, dtype=np.uint64) * 4,
        dtype=dtype,
        itemsize=4,
    )


def test_frequent_reports_the_most_frequent_value():
    values = np.array([3, 1, 3, 3, 2, 1, 3, 3], np.int32)
    hit = detect_frequent_values(_view(values, DType.INT32))
    assert hit.metrics["top_value"] == 3
    assert hit.metrics["share"] == pytest.approx(5 / 8)
    assert hit.metrics["distinct_values"] == 3


def test_frequent_tie_picks_one_of_the_tied_values():
    values = np.array([1.0, 2.0] * 8, np.float32)
    hit = detect_frequent_values(_view(values))
    assert hit.metrics["top_value"] in (1.0, 2.0)
    assert hit.metrics["share"] == 0.5


def test_frequent_fires_on_dominant_value():
    values = np.zeros(100, np.float32)
    values[:20] = 7.0
    hit = detect_frequent_values(_view(values))
    assert hit is not None
    assert hit.metrics["top_value"] == 0.0
    assert hit.metrics["share"] == pytest.approx(0.8)


def test_frequent_respects_threshold():
    values = np.arange(100, dtype=np.float32)
    values[:40] = 5.0  # 41% share
    default = detect_frequent_values(_view(values))
    assert default is None  # below the default 50%
    config = PatternConfig(frequent_threshold=0.3)
    assert detect_frequent_values(_view(values), config) is not None


def test_frequent_needs_min_accesses():
    values = np.zeros(4, np.float32)
    assert detect_frequent_values(_view(values)) is None


def test_single_value_fires_on_uniform_data():
    hit = detect_single_value(_view(np.full(64, 3.5, np.float32)))
    assert hit is not None
    assert hit.metrics["value"] == 3.5


def test_single_value_rejects_mixed_data():
    values = np.full(64, 3.5, np.float32)
    values[-1] = 3.6
    assert detect_single_value(_view(values)) is None


def test_single_value_nan_uniform():
    """A uniformly-NaN object is a single (bitwise) value."""
    hit = detect_single_value(_view(np.full(32, np.nan, np.float32)))
    assert hit is not None


def test_single_zero_fires_on_zeros():
    hit = detect_single_zero(_view(np.zeros(64, np.float32)))
    assert hit is not None
    assert hit.pattern is Pattern.SINGLE_ZERO


def test_single_zero_rejects_nonzero():
    values = np.zeros(64, np.float32)
    values[10] = 1e-30
    assert detect_single_zero(_view(values)) is None


def test_single_zero_on_integer_data():
    hit = detect_single_zero(_view(np.zeros(64, np.int32), DType.INT32))
    assert hit is not None


def test_zero_data_triggers_all_three():
    """Zeros satisfy frequent ⊇ single value ⊇ single zero."""
    hits = run_fine_value_detectors(_view(np.zeros(64, np.float32)))
    patterns = {hit.pattern for hit in hits}
    assert patterns == {
        Pattern.FREQUENT_VALUES,
        Pattern.SINGLE_VALUE,
        Pattern.SINGLE_ZERO,
    }


def test_uniform_nonzero_triggers_two():
    hits = run_fine_value_detectors(_view(np.full(64, 2.0, np.float32)))
    patterns = {hit.pattern for hit in hits}
    assert patterns == {Pattern.FREQUENT_VALUES, Pattern.SINGLE_VALUE}


def test_diverse_data_triggers_none():
    rng = np.random.default_rng(0)
    hits = run_fine_value_detectors(_view(rng.normal(size=128).astype(np.float32)))
    assert hits == []
