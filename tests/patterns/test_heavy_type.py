"""Tests for the heavy-type detector (Definition 3.6)."""

import warnings

import numpy as np
import pytest

from repro.gpu.dtypes import DType
from repro.patterns.base import ObjectAccessView, Pattern, PatternConfig
from repro.patterns.heavy_type import detect_heavy_type, minimal_value_type


def _view(values, dtype):
    values = np.asarray(values)
    return ObjectAccessView(
        object_label="obj",
        api_ref="api",
        values=values,
        addresses=np.arange(values.size, dtype=np.uint64) * dtype.itemsize,
        dtype=dtype,
        itemsize=dtype.itemsize,
    )


def test_int32_values_in_int8_range():
    """The Rodinia/bfs g_cost case: int32 demotes to int8."""
    values = np.arange(0, 100, dtype=np.int32)
    assert minimal_value_type(values, DType.INT32) is DType.INT8
    hit = detect_heavy_type(_view(values, DType.INT32))
    assert hit is not None
    assert hit.metrics["minimal"] == "INT8"
    assert hit.metrics["saving_bits"] == 24


def test_int32_values_needing_int16():
    values = np.array([0, 300, 32000], dtype=np.int32).repeat(8)
    assert minimal_value_type(values, DType.INT32) is DType.INT16


def test_full_range_int32_not_heavy():
    values = np.array([-(2**31), 2**31 - 1], dtype=np.int64).repeat(8)
    assert minimal_value_type(values, DType.INT32) is DType.INT32
    assert detect_heavy_type(_view(values.astype(np.int32), DType.INT32)) is None


def test_unsigned_demotion():
    values = np.arange(0, 200, dtype=np.uint32)
    assert minimal_value_type(values, DType.UINT32) is DType.UINT8


def test_float64_integral_values_demote_to_int():
    values = np.arange(0, 50, dtype=np.float64)
    assert minimal_value_type(values, DType.FLOAT64) is DType.UINT8
    signed = np.arange(-10, 40, dtype=np.float64)
    assert minimal_value_type(signed, DType.FLOAT64) is DType.INT8


def test_float64_f32_representable_demotes():
    values = np.array([0.5, 0.25, 1.75], dtype=np.float64).repeat(8)
    narrow = minimal_value_type(values, DType.FLOAT64)
    assert narrow in (DType.FLOAT16, DType.FLOAT32)


def test_float64_irrational_values_use_codebook():
    """The lavaMD rA case: ten values from {0.1 ... 1.0} are not exactly
    representable narrower, but a tiny codebook indexes them."""
    alphabet = np.round(np.arange(1, 11) * 0.1, 1)
    values = np.tile(alphabet, 10)
    hit = detect_heavy_type(_view(values, DType.FLOAT64))
    assert hit is not None
    assert hit.metrics["codebook_size"] == 10
    assert hit.metrics["minimal"] == "UINT8"


def test_high_entropy_floats_not_heavy():
    rng = np.random.default_rng(0)
    values = rng.normal(size=1000)  # > 256 distinct values, full mantissas
    assert detect_heavy_type(_view(values, DType.FLOAT64)) is None


def test_lossless_requirement_for_floats():
    """0.1 in float64 does not round-trip through float32."""
    values = np.full(32, 0.1, dtype=np.float64)
    narrow = minimal_value_type(values, DType.FLOAT64)
    assert narrow is DType.FLOAT64  # exact demotion impossible


def test_min_saving_threshold():
    values = np.arange(0, 30000, dtype=np.int32)[:64]
    config = PatternConfig(heavy_type_min_saving_bits=32)
    assert detect_heavy_type(_view(values, DType.INT32), config) is None


def test_min_accesses_respected():
    values = np.zeros(4, np.int32)
    assert detect_heavy_type(_view(values, DType.INT32)) is None


def test_negative_values_force_signed_type():
    values = np.array([-5, 100], dtype=np.int32).repeat(8)
    assert minimal_value_type(values, DType.INT32) is DType.INT8
    values = np.array([-5, 200], dtype=np.int32).repeat(8)
    assert minimal_value_type(values, DType.INT32) is DType.INT16


def test_empty_values_keep_declared():
    assert minimal_value_type(np.array([], np.int32), DType.INT32) is DType.INT32


def test_hit_reports_pattern_enum():
    hit = detect_heavy_type(_view(np.arange(64, dtype=np.int32), DType.INT32))
    assert hit.pattern is Pattern.HEAVY_TYPE


def test_demotion_overflow_does_not_warn():
    """Floats beyond float16's range fail the round-trip silently."""
    values = np.linspace(1e5, 1e7, 1024).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert minimal_value_type(values, DType.FLOAT32) is DType.FLOAT32
        assert detect_heavy_type(_view(values, DType.FLOAT32)) is None


def test_codebook_caps_at_uint8_codes():
    """256 distinct irrational doubles still fit uint8 codes; 257 do not."""
    alphabet = np.sqrt(np.arange(2, 259, dtype=np.float64))
    hit = detect_heavy_type(_view(alphabet[:256], DType.FLOAT64))
    assert hit.metrics["codebook_size"] == 256
    assert hit.metrics["minimal"] == "UINT8"
    assert detect_heavy_type(_view(alphabet, DType.FLOAT64)) is None


def test_minimal_type_of_distinct_values_matches_all_values():
    values = np.array([0.5, -0.0, 0.0, 0.25, np.nan, 0.5] * 4)
    assert minimal_value_type(values, DType.FLOAT64) is minimal_value_type(
        np.unique(values), DType.FLOAT64
    )
