"""Tests for the coarse-grained detectors (Definitions 3.1, 3.2)."""

import numpy as np
import pytest

from repro.patterns.base import Pattern, PatternConfig, SnapshotPair
from repro.patterns.coarse import (
    detect_duplicate_values,
    detect_redundant_values,
    unchanged_fraction,
)


def _pair(before, after, runs=None):
    return SnapshotPair(
        np.asarray(before), np.asarray(after),
        None if runs is None else np.asarray(runs, np.int64).reshape(-1, 2),
    )


def test_unchanged_fraction_identical():
    assert unchanged_fraction(_pair(np.zeros(10), np.zeros(10))) == 1.0


def test_unchanged_fraction_all_changed():
    assert unchanged_fraction(_pair(np.zeros(10), np.ones(10))) == 0.0


def test_unchanged_fraction_partial():
    before = np.zeros(10, np.float32)
    after = before.copy()
    after[:3] = 5.0
    assert unchanged_fraction(_pair(before, after)) == pytest.approx(0.7)


def test_unchanged_fraction_restricted_to_written_runs():
    """Only written elements participate (Section 6.1)."""
    before = np.zeros(10, np.float32)
    after = before.copy()
    after[0] = 1.0
    # Written = {0}: fully changed even though 9 others are unchanged.
    assert unchanged_fraction(_pair(before, after, [[0, 1]])) == 0.0
    # Written = {5}: that element is unchanged.
    assert unchanged_fraction(_pair(before, after, [[5, 6]])) == 1.0


def test_unchanged_fraction_index_runs_match_gathers():
    """One written run is compared through views and several through a
    gather; either way every element a run holds counts, once per run
    that holds it.  A run that is reversed or leaves the snapshot is
    refused."""
    before = np.arange(8, dtype=np.float32)
    after = before.copy()
    after[[1, 4, 6]] = -1.0
    for runs in (
        [[2, 6]], [[0, 8]], [[6, 7]], [[3, 3]],
        [[0, 2], [5, 8]], [[2, 5], [3, 7]], [[4, 4], [1, 3], [8, 8]],
        [[0, 8], [0, 8]],
    ):
        idx = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
        same = np.count_nonzero(before[idx] == after[idx])
        expected = same / idx.size if idx.size else 0.0
        assert unchanged_fraction(_pair(before, after, runs)) == expected
    for runs in ([[6, 9]], [[-1, 2]], [[5, 4]], [[0, 2], [7, 9]]):
        with pytest.raises(ValueError):
            unchanged_fraction(_pair(before, after, runs))


def test_unchanged_fraction_nan_bitwise_equal():
    """NaN == NaN counts as unchanged: comparison is over raw bits."""
    before = np.full(4, np.nan, np.float64)
    after = before.copy()
    assert unchanged_fraction(_pair(before, after)) == 1.0


def test_unchanged_fraction_negative_zero_differs_from_zero():
    before = np.array([0.0], np.float64)
    after = np.array([-0.0], np.float64)
    assert unchanged_fraction(_pair(before, after)) == 0.0


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        unchanged_fraction(_pair(np.zeros(3), np.zeros(4)))


def test_dtype_mismatch_rejected():
    with pytest.raises(ValueError):
        unchanged_fraction(
            _pair(np.zeros(4, np.float32), np.zeros(4, np.float64))
        )


def test_empty_written_set_is_not_redundant():
    fraction = unchanged_fraction(_pair(np.zeros(4), np.zeros(4), []))
    assert fraction == 0.0


def test_redundant_fires_above_threshold():
    before = np.zeros(100, np.float32)
    after = before.copy()
    after[:50] = 1.0  # 50% unchanged > 33% threshold
    hit = detect_redundant_values(_pair(before, after), "obj", "api")
    assert hit is not None
    assert hit.pattern is Pattern.REDUNDANT_VALUES
    assert hit.metrics["unchanged_fraction"] == pytest.approx(0.5)


def test_redundant_respects_threshold():
    before = np.zeros(100, np.float32)
    after = before.copy()
    after[:80] = 1.0  # only 20% unchanged
    config = PatternConfig(redundant_threshold=0.33)
    assert detect_redundant_values(_pair(before, after), "o", "a", config) is None
    loose = PatternConfig(redundant_threshold=0.1)
    assert detect_redundant_values(_pair(before, after), "o", "a", loose) is not None


def test_redundant_silent_when_every_element_changes():
    hit = detect_redundant_values(_pair(np.zeros(32), np.ones(32)), "obj", "api")
    assert hit is None


def test_unchanged_fraction_compares_whole_words():
    """One differing byte inside a wide element changes the element."""
    before = np.arange(8, dtype=np.int64)
    after = before.copy()
    after.view(np.uint8)[8 * 3 + 7] ^= 0x80
    assert unchanged_fraction(_pair(before, after)) == pytest.approx(7 / 8)


def test_unchanged_fraction_nan_payloads_differ():
    """Two NaNs with different payloads are different bits."""
    before = np.array([0x7FC00000, 0x7FC00001], np.uint32).view(np.float32)
    after = np.array([0x7FC00000, 0x7FC00002], np.uint32).view(np.float32)
    assert unchanged_fraction(_pair(before, after)) == 0.5


def test_fully_redundant_double_initialization():
    """The PyTorch double-init case: second init changes nothing."""
    snapshot = np.zeros(64, np.float32)
    hit = detect_redundant_values(_pair(snapshot, snapshot.copy()), "input", "zero_")
    assert hit is not None
    assert hit.metrics["unchanged_fraction"] == 1.0


def test_duplicates_grouped_by_content():
    hits = detect_duplicate_values(
        [
            ("a", np.zeros(8, np.float32)),
            ("b", np.zeros(8, np.float32)),
            ("c", np.ones(8, np.float32)),
        ],
        "api",
    )
    assert len(hits) == 1
    assert hits[0].metrics["group"] == ("a", "b")


def test_duplicates_multiple_groups():
    hits = detect_duplicate_values(
        [
            ("a", np.zeros(8)),
            ("b", np.zeros(8)),
            ("c", np.ones(8)),
            ("d", np.ones(8)),
        ],
        "api",
    )
    groups = {hit.metrics["group"] for hit in hits}
    assert groups == {("a", "b"), ("c", "d")}


def test_no_duplicates_no_hits():
    hits = detect_duplicate_values(
        [("a", np.array([1.0])), ("b", np.array([2.0]))], "api"
    )
    assert hits == []


def test_duplicates_require_bitwise_equality():
    """Same numeric values in different dtypes are not duplicates."""
    hits = detect_duplicate_values(
        [("a", np.ones(4, np.float32)), ("b", np.ones(4, np.float64))], "api"
    )
    assert hits == []
