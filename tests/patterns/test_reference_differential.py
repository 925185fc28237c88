"""The vectorised pattern detectors against the per-element oracle.

``repro.patterns.reference`` recomputes Definitions 3.1 and 3.3-3.8 one
element at a time; every view hypothesis generates here must get exactly
the oracle's patterns and metrics from :meth:`PatternEngine.analyze_view`,
and every snapshot pair the oracle's unchanged fraction.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.dtypes import DType, unsigned_of_width
from repro.patterns import reference
from repro.patterns.approximate import truncate_mantissa, truncated_summary
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    SnapshotPair,
    ViewSummary,
)
from repro.patterns.coarse import unchanged_fraction
from repro.patterns.engine import PatternEngine

FLOATS = {np.dtype(np.float16): (5, 10), np.dtype(np.float32): (8, 23),
          np.dtype(np.float64): (11, 52)}
DTYPES = [np.dtype(t) for t in (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64,
)]


def _special_bits(dtype):
    """Bit patterns of the values the detectors treat specially."""
    bits = dtype.itemsize * 8
    sign = 1 << (bits - 1)
    if dtype not in FLOATS:
        top = (1 << bits) - 1
        return [0, 1, 2, top, top - 1, sign, sign - 1, sign + 1]
    exp_bits, man_bits = FLOATS[dtype]
    exp_all = ((1 << exp_bits) - 1) << man_bits
    one = ((1 << (exp_bits - 1)) - 1) << man_bits
    quiet = 1 << (man_bits - 1)
    return [
        0, sign,                                  # +0.0, -0.0
        1, sign | 1, (1 << man_bits) - 1,         # subnormals
        sign | (1 << (man_bits - 1)),
        exp_all, sign | exp_all,                  # +-inf
        exp_all | quiet, exp_all | quiet | 1,     # quiet NaNs, two payloads
        sign | exp_all | quiet | 3,
        exp_all | 1, sign | exp_all | 2,          # NaNs that truncate to +-inf
        exp_all - 1, sign | (exp_all - 1),        # +-max finite
        one, one | 1, one | 2, one | 7,           # 1.0 and its neighbours
        sign | one, sign | one | 1,
        one + (16 << man_bits),                   # 2**16, beyond float16
    ]


@st.composite
def bit_patterns(draw, dtype, n):
    """``n`` raw bit patterns of ``dtype`` in one of several shapes."""
    bits = dtype.itemsize * 8
    specials = _special_bits(dtype)
    any_bits = st.integers(0, (1 << bits) - 1)
    mode = draw(st.sampled_from(["alphabet", "random", "linear", "near"]))
    if mode == "alphabet":
        # Few distinct values: repeats, ties at the top, single values.
        alphabet = draw(st.lists(
            st.one_of(st.sampled_from(specials), any_bits), min_size=1, max_size=4
        ))
        return draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    if mode == "random":
        return draw(st.lists(
            st.one_of(st.sampled_from(specials), any_bits), min_size=n, max_size=n
        ))
    if mode == "linear":
        # value = a * index + b with a few outliers: structured values.
        a = draw(st.integers(-3, 3))
        b = draw(st.integers(-20, 20))
        numbers = [a * i + b for i in range(n)]
        for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)):
            if n:
                numbers[i] += draw(st.integers(-50, 50))
        if dtype in FLOATS:
            return np.array(numbers, np.float64).astype(dtype).view(
                unsigned_of_width(dtype.itemsize)).tolist()
        return [x % (1 << bits) for x in numbers]
    # "near": one base plus noise in the low bits, which truncation
    # drops; a zero base of either sign makes subnormals of that sign.
    base = draw(st.sampled_from(specials))
    spread = draw(st.integers(0, 12))
    noise = st.integers(0, (1 << spread) - 1)
    return [(base + draw(noise)) % (1 << bits) for _ in range(n)]


@st.composite
def views(draw):
    dtype = draw(st.sampled_from(DTYPES))
    n = draw(st.integers(0, 40))
    raw = draw(bit_patterns(dtype, n))
    values = np.array(raw, dtype=unsigned_of_width(dtype.itemsize)).view(dtype)
    # The object's element size need not be the access width: a wider
    # one makes fractional element indices, a narrower one gaps.
    itemsize = draw(st.sampled_from([dtype.itemsize, dtype.itemsize, 1, 8]))
    layout = draw(st.sampled_from(
        ["ascending", "permuted", "repeated", "sparse", "covering"]
    ))
    if layout == "ascending":
        index = list(range(n))
    elif layout == "permuted":
        index = draw(st.permutations(list(range(n))))
    elif layout == "repeated":
        index = draw(st.lists(st.integers(0, max(n // 2, 1)), min_size=n, max_size=n))
    elif layout == "covering":
        # An ascending head, then re-reads of its elements that see the
        # head's value or another one.
        head = draw(st.integers(min(n, 1), n))
        index = list(range(head)) + draw(st.lists(
            st.integers(0, max(head - 1, 0)), min_size=n - head, max_size=n - head
        ))
        for position in range(head, n):
            if draw(st.booleans()):
                values[position] = values[index[position]]
    else:
        index = draw(st.lists(st.integers(0, 1 << 20), min_size=n, max_size=n))
    base = draw(st.integers(0, 1 << 32))
    addresses = np.array(
        [base + i * dtype.itemsize for i in index], dtype=np.uint64
    )
    return ObjectAccessView(
        object_label="obj",
        api_ref="api",
        values=values,
        addresses=addresses,
        dtype=DType.from_numpy(dtype),
        itemsize=itemsize,
    )


configs = st.builds(
    PatternConfig,
    frequent_threshold=st.sampled_from([0.5, 0.5, 0.25]),
    structured_min_distinct=st.sampled_from([3, 3, 1]),
    structured_outlier_fraction=st.sampled_from([0.02, 0.02, 0.9]),
    approximate_mantissa_bits=st.sampled_from([10, 10, 1, 4, 30, 60]),
    heavy_type_min_saving_bits=st.sampled_from([8, 8, 0]),
)


def _same(actual, expected) -> bool:
    if isinstance(expected, reference.AnyOf):
        return any(_same(actual, option) for option in expected.options)
    if type(actual) is not type(expected):
        return False
    if isinstance(expected, float):
        if math.isnan(expected):
            return math.isnan(actual)
        return actual == expected and (
            math.copysign(1.0, actual) == math.copysign(1.0, expected)
        )
    return actual == expected


def assert_matches_reference(view, config=PatternConfig()):
    expected = reference.analyze_view(view, config)
    actual = PatternEngine(config).analyze_view(view)
    assert [hit.pattern for hit in actual] == [p for p, _ in expected]
    for hit, (_, metrics) in zip(actual, expected):
        assert set(hit.metrics) == set(metrics), hit
        for key, value in metrics.items():
            assert _same(hit.metrics[key], value), (hit.pattern, key, hit.metrics[key], value)
    return actual


@given(views(), configs)
@settings(max_examples=400, deadline=None)
def test_engine_matches_reference(view, config):
    assert_matches_reference(view, config)


@given(views(), st.sampled_from([1, 4, 10, 30, 60]))
@settings(max_examples=300, deadline=None)
def test_truncated_summary_matches_unique_of_truncated_values(view, keep_bits):
    """The derived summary is what np.unique of the truncated values gives,
    down to the sign of a merged zero."""
    values = np.asarray(view.values)
    if values.dtype.kind == "f" and values.size:
        _assert_truncation_matches(values, keep_bits)


@pytest.mark.parametrize("copies", [5, 40])
def test_truncated_summary_keeps_the_sign_unique_picks(copies):
    """+0.0 and a negative subnormal merge into one zero, which both
    summaries must report as +0.0."""
    values = _floats([0x00000000] * copies + [0x80000001] * copies + [0x3F800000] * 2)
    _assert_truncation_matches(values, 10)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("order", ["negative_first", "positive_first", "mixed"])
def test_a_frequent_zero_is_positive_whatever_the_signs(dtype, order):
    """Mixed -0.0 and +0.0 are one distinct +0.0, in the summary, its
    truncation and the reported frequent value."""
    zeros = {
        "negative_first": [-0.0] * 6 + [0.0] * 6,
        "positive_first": [0.0] * 6 + [-0.0] * 6,
        "mixed": [-0.0, 0.0] * 6,
    }[order]
    values = np.array(zeros + [1.5, -2.0, 3.0], dtype=dtype)
    for summary in (
        ViewSummary.of(values), truncated_summary(ViewSummary.of(values), 4)
    ):
        zero = summary.distinct[summary.distinct == 0]
        assert zero.size == 1 and not np.signbit(zero[0])
        assert summary.counts[summary.distinct == 0].tolist() == [12]
    (hit,) = [
        hit for hit in assert_matches_reference(_view(values))
        if hit.pattern is Pattern.FREQUENT_VALUES
    ]
    assert math.copysign(1.0, hit.metrics["top_value"]) == 1.0


def _assert_truncation_matches(values, keep_bits):
    derived = truncated_summary(ViewSummary.of(values), keep_bits)
    direct = ViewSummary.of(truncate_mantissa(values, keep_bits))
    word = unsigned_of_width(values.dtype.itemsize)
    assert derived.n == direct.n
    assert derived.has_nan == direct.has_nan
    assert np.array_equal(derived.distinct.view(word), direct.distinct.view(word))
    assert np.array_equal(derived.counts, direct.counts)
    assert derived.first.view(word) == direct.first.view(word)


@st.composite
def written_runs(draw, n):
    """Up to 6 runs ``[lo, hi)`` with ``0 <= lo <= hi <= n``: any run
    (empty ones and ones at 0 or at ``n`` among them), one element, the
    whole object, and runs adjacent to or sharing elements with the run
    before."""
    runs = []
    for _ in range(draw(st.integers(0, 6))):
        prev_lo, prev_hi = runs[-1] if runs else (0, n)
        shape = draw(st.sampled_from(["any", "one", "whole", "adjacent", "shared"]))
        if shape == "any":
            lo, hi = sorted((draw(st.integers(0, n)), draw(st.integers(0, n))))
        elif shape == "one":
            lo = draw(st.integers(0, max(n - 1, 0)))
            hi = min(lo + 1, n)
        elif shape == "whole":
            lo, hi = 0, n
        else:
            lo = prev_hi if shape == "adjacent" else draw(st.integers(prev_lo, prev_hi))
            hi = draw(st.integers(lo, n))
        runs.append((lo, hi))
    return np.array(runs, dtype=np.int64).reshape(-1, 2)


@st.composite
def snapshot_pairs(draw):
    dtype = draw(st.sampled_from(DTYPES))
    n = draw(st.integers(0, 24))
    before = draw(bit_patterns(dtype, n))
    after = list(before)
    specials = _special_bits(dtype)
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)):
        if n:
            after[i] = draw(st.sampled_from(specials))
    uint = unsigned_of_width(dtype.itemsize)
    written = draw(st.one_of(st.none(), written_runs(n)))
    return SnapshotPair(
        np.array(before, uint).view(dtype), np.array(after, uint).view(dtype), written
    )


@given(snapshot_pairs())
@settings(max_examples=200, deadline=None)
def test_unchanged_fraction_matches_reference(pair):
    assert unchanged_fraction(pair) == reference.unchanged_fraction(pair)


def _view(values, addresses=None):
    values = np.asarray(values)
    if addresses is None:
        addresses = np.arange(values.size, dtype=np.uint64) * values.dtype.itemsize
    return ObjectAccessView(
        object_label="obj", api_ref="api", values=values,
        addresses=np.asarray(addresses, dtype=np.uint64),
        dtype=DType.from_numpy(values.dtype), itemsize=values.dtype.itemsize,
    )


def _floats(bits, dtype=np.float32):
    return np.array(bits, dtype=unsigned_of_width(np.dtype(dtype).itemsize)).view(dtype)


def test_nan_payloads_that_truncate_to_infinity():
    """Signalling NaNs with low payloads become +inf under truncation."""
    values = _floats(
        [0x7F800001 + i for i in range(4)] + [0x7F800000]
        + [0x3F800000 + (i << 20) for i in range(5)]
    )
    hits = assert_matches_reference(_view(values))
    approx = [h for h in hits if h.pattern is Pattern.APPROXIMATE_VALUES]
    assert [h.metrics["underlying"] for h in approx] == ["frequent values"]
    assert approx[0].metrics["top_value"] == math.inf


def test_mixed_signed_zeros_under_truncation():
    """-0.0, +0.0 and subnormals of both signs collapse to one zero."""
    values = _floats(
        [0x80000000] * 3 + [0x00000000] * 3 + [0x80000001, 0x00000002] * 3
        + [0x3F800000, 0x40000000]
    )
    hits = assert_matches_reference(_view(values))
    approx = {h.metrics["underlying"]: h for h in hits if h.pattern is Pattern.APPROXIMATE_VALUES}
    assert approx["frequent values"].metrics["top_value"] == 0.0


def test_tie_at_the_top_count():
    values = np.array([1.0, 2.0] * 6, np.float32)
    hits = assert_matches_reference(_view(values))
    frequent = hits[0]
    assert frequent.pattern is Pattern.FREQUENT_VALUES
    assert frequent.metrics["top_value"] in (1.0, 2.0)
    assert frequent.metrics["share"] == 0.5


def test_infinities_and_subnormals():
    values = _floats([0x7F800000, 0xFF800000, 0x00000001, 0x80000001] * 4)
    assert_matches_reference(_view(values))


def test_repeated_and_unsorted_addresses():
    values = np.array([7, 3, 5, 3, 9, 1, 11, 5, 13, 15], np.int32)
    index = np.array([3, 1, 2, 1, 4, 0, 5, 2, 6, 7], np.uint64)
    hits = assert_matches_reference(_view(values, index * 4))
    assert Pattern.STRUCTURED_VALUES in {h.pattern for h in hits}


def test_unsorted_addresses_at_half_element_steps():
    """4-byte accesses into 8-byte elements: element indices step by 0.5,
    so deduplicating them must not round them to whole numbers."""
    order = np.random.default_rng(0).permutation(32)
    values = (3 * order + 5).astype(np.int32)
    view = _view(values, 0x1000 + order.astype(np.uint64) * 4)
    view.itemsize = 8
    hits = assert_matches_reference(view)
    structured = [h for h in hits if h.pattern is Pattern.STRUCTURED_VALUES]
    assert structured[0].metrics["slope"] == 6.0


def test_int64_values_that_collide_as_float64():
    """Distinct int64 values can share a float64 image; structured values
    counts distinct values after the cast (two here, below the minimum)."""
    low, high = 2**60, 2**60 + 1024
    values = np.array([low + i if i % 2 == 0 else high + i for i in range(10)], np.int64)
    config = PatternConfig(structured_outlier_fraction=0.9)
    hits = assert_matches_reference(_view(values), config)
    assert Pattern.STRUCTURED_VALUES not in {h.pattern for h in hits}


@pytest.mark.parametrize("dtype", DTYPES, ids=str)
def test_every_dtype_specials(dtype):
    uint = unsigned_of_width(dtype.itemsize)
    values = np.array(_special_bits(dtype), uint).view(dtype)
    assert_matches_reference(_view(np.tile(values, 2)))


def test_reference_imports_no_vectorised_detector():
    """The oracle must not share code with what it checks."""
    import repro.patterns.reference as module

    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    detectors = {f"repro.patterns.{name}" for name in (
        "fine", "heavy_type", "structured", "approximate", "coarse", "engine"
    )}
    assert not imported & detectors
