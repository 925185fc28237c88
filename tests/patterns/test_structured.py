"""Tests for the structured-values detector (Definition 3.7)."""

import numpy as np
import pytest

from repro.gpu.dtypes import DType
from repro.patterns.base import ObjectAccessView, PatternConfig
from repro.patterns.structured import detect_structured_values, fit_structured


def _view(values, addresses=None, itemsize=4):
    values = np.asarray(values)
    if addresses is None:
        addresses = np.arange(values.size, dtype=np.uint64) * itemsize
    return ObjectAccessView(
        object_label="obj",
        api_ref="api",
        values=values,
        addresses=np.asarray(addresses, dtype=np.uint64),
        dtype=DType.INT32,
        itemsize=itemsize,
    )


def test_perfect_linear_relation_detected():
    values = np.arange(100, dtype=np.int32) * 3 + 7
    hit = detect_structured_values(_view(values))
    assert hit is not None
    assert hit.metrics["slope"] == pytest.approx(3.0)
    assert hit.metrics["intercept"] == pytest.approx(7.0)


def test_negative_slope_detected():
    values = 1000 - np.arange(100, dtype=np.int32) * 2
    hit = detect_structured_values(_view(values))
    assert hit.metrics["slope"] == pytest.approx(-2.0)


def test_identity_neighbour_array_with_boundary_clamp():
    """The srad d_iN case: value = index - 1, clamped at 0."""
    values = np.maximum(np.arange(200, dtype=np.int32) - 1, 0)
    hit = detect_structured_values(_view(values))
    assert hit is not None
    assert hit.metrics["slope"] == pytest.approx(1.0)
    assert hit.metrics["inlier_fraction"] >= 0.99


def test_random_values_not_structured():
    rng = np.random.default_rng(1)
    values = rng.integers(0, 1000, 200).astype(np.int32)
    assert detect_structured_values(_view(values)) is None


def test_constant_values_not_structured():
    """Constants are single value, not structured (patterns disjoint)."""
    values = np.full(100, 5, np.int32)
    assert detect_structured_values(_view(values)) is None


def test_two_distinct_values_not_structured():
    values = np.where(np.arange(100) % 2 == 0, 1, 2).astype(np.int32)
    assert detect_structured_values(_view(values)) is None


def test_repeated_addresses_with_consistent_values():
    """Each element read many times still yields the relation."""
    base_values = np.arange(50, dtype=np.int32) * 2
    values = np.tile(base_values, 4)
    addresses = np.tile(np.arange(50, dtype=np.uint64) * 4, 4)
    hit = detect_structured_values(_view(values, addresses))
    assert hit is not None
    assert hit.metrics["slope"] == pytest.approx(2.0)


def test_outlier_fraction_limit():
    values = (np.arange(100, dtype=np.float64) * 2).astype(np.int32)
    values[::10] += 500  # 10% outliers
    config = PatternConfig(structured_outlier_fraction=0.02)
    assert detect_structured_values(_view(values), config) is None
    lenient = PatternConfig(structured_outlier_fraction=0.15)
    assert detect_structured_values(_view(values), lenient) is not None


def test_float_linear_values():
    values = np.arange(64, dtype=np.float32) * 0.5 + 1.0
    hit = detect_structured_values(_view(values))
    assert hit is not None


def test_non_finite_values_rejected():
    values = np.arange(64, dtype=np.float64)
    values[3] = np.inf
    assert detect_structured_values(_view(values)) is None


def test_min_accesses_respected():
    values = np.arange(4, dtype=np.int32)
    assert detect_structured_values(_view(values)) is None


def test_fit_structured_returns_none_for_single_address():
    indices = np.zeros(10)
    values = np.arange(10, dtype=np.float64)
    assert fit_structured(indices, values) is None


def test_fit_structured_returns_none_for_zero_slope():
    indices = np.arange(10, dtype=np.float64)
    values = np.where(indices == 4, 9.0, 2.0)
    assert fit_structured(indices, values) is None
    assert fit_structured(indices, indices * 2)[0] == 2.0


def test_itemsize_scaling_of_indices():
    """Addresses stride by itemsize; the fit works in element space."""
    values = np.arange(64, dtype=np.int64) * 5
    addresses = 0x1000 + np.arange(64, dtype=np.uint64) * 8
    hit = detect_structured_values(_view(values, addresses, itemsize=8))
    assert hit is not None
    assert hit.metrics["slope"] == pytest.approx(5.0)
