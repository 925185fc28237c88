"""Deduplicating covering access streams without a sort.

``first_accesses`` must return exactly what ``np.unique`` of the element
indices returns, whether it takes the covering shortcut or not.  The
streams drawn here are covering ones (an ascending run of elements,
then re-reads of them) and each near miss of the four conditions that
make the shortcut exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.dtypes import DType
from repro.patterns import structured
from repro.patterns.base import ObjectAccessView, PatternConfig
from repro.patterns.structured import (
    detect_structured_values,
    first_accesses,
    fit_structured,
)

ITEMSIZES = [1, 2, 4, 8, 12]
SHAPES = [
    "covering", "ascending", "head_gap", "head_repeat", "off_grid",
    "below", "above", "huge_base",
]


def unique_indices(addresses, step):
    """``np.unique`` of the float64 element indices: the oracle."""
    floats = addresses.astype(np.float64)
    return np.unique((floats - floats.min()) / step, return_index=True)


@st.composite
def streams(draw):
    """``(addresses, step, shape)``: a covering stream or a near miss."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    step = draw(st.sampled_from(ITEMSIZES))
    shape = draw(st.sampled_from(SHAPES))
    size = draw(st.integers(1, 12))
    if shape == "huge_base":
        # float64 cannot hold every address: it rounds odd ones above 2**53.
        edge = 2**53 - draw(st.integers(0, 2 * size * step))
        bases = [edge, 2**53, 2**53 + 1, 2**60 + 3]
        if dtype is np.uint64:
            bases.append(2**64 - 1 - size * step)
        else:
            bases += [-(2**53), -(2**53) - 1, -(2**62) - 3]
        base = draw(st.sampled_from(bases))
    elif dtype is np.int64:
        base = draw(st.integers(-(2**40), 2**40))
    else:
        base = draw(st.integers(2**12, 2**40))
    head = [base + k * step for k in range(size)]
    rereads = draw(st.lists(st.sampled_from(head), max_size=24))
    if shape == "ascending":
        rereads = []
    elif shape == "head_gap" and size >= 3:
        del head[draw(st.integers(1, size - 2))]
    elif shape == "head_repeat":
        at = draw(st.integers(0, size - 1))
        head.insert(at, head[at])
    elif shape in ("off_grid", "below", "above"):
        if shape == "off_grid":
            bad = draw(st.sampled_from(head)) + draw(st.integers(1, max(step - 1, 1)))
        elif shape == "below":
            bad = base - draw(st.integers(1, 3 * step))
        else:
            bad = head[-1] + draw(st.integers(1, 3 * step))
        rereads.insert(draw(st.integers(0, len(rereads))), bad)
    return np.array(head + rereads, dtype=dtype), step, shape


@given(streams())
@settings(max_examples=600, deadline=None)
def test_first_accesses_match_unique(stream):
    addresses, step, shape = stream
    indices, positions = first_accesses(addresses, step)
    expected_indices, expected_positions = unique_indices(addresses, step)
    assert indices.dtype == np.float64
    assert np.array_equal(indices, expected_indices)
    assert np.array_equal(np.arange(addresses.size)[positions], expected_positions)
    if shape in ("covering", "ascending"):
        # Whole, in-range streams take a sort-free path.
        assert isinstance(positions, slice)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("step", ITEMSIZES)
def test_covering_stream_takes_the_shortcut(dtype, step):
    head = 4096 + step * np.arange(10)
    addresses = np.concatenate([head, head[::-1], head[3:7]]).astype(dtype)
    indices, positions = first_accesses(addresses, step)
    assert positions == slice(10)
    assert np.array_equal(indices, np.arange(10.0))


def test_float_addresses_use_unique():
    addresses = np.array([8.0, 12.0, 8.0, 16.0, 12.0])
    indices, positions = first_accesses(addresses, 4)
    assert np.array_equal(indices, [0.0, 1.0, 2.0])
    assert np.array_equal(positions, [0, 1, 3])


# -- a deepwave-shaped view -------------------------------------------------------

#: deepwave's grad_output: 12 passes over 49,152 float32 elements.
ELEMENTS, PASSES = 49_152, 12


def _deepwave_view(values):
    addresses = 0x7F00_0000_0000 + 4 * np.arange(ELEMENTS, dtype=np.uint64)
    return ObjectAccessView(
        object_label="grad_output",
        api_ref="api",
        values=np.tile(values.astype(np.float32), PASSES),
        addresses=np.tile(addresses, PASSES),
        dtype=DType.FLOAT32,
        itemsize=4,
    )


def _unique_path(view, config):
    """Structured values' metrics when every index goes through
    ``np.unique`` (the path covering streams no longer take), or None."""
    values = view.summary.values.astype(np.float64)
    addresses = np.asarray(view.addresses).astype(np.float64)
    indices = (addresses - addresses.min()) / view.itemsize
    uniq_idx, first = np.unique(indices, return_index=True)
    uniq_val = values[first]
    fit = fit_structured(uniq_idx, uniq_val)
    if fit is None:
        return None
    slope, intercept, residuals = fit
    inliers = np.count_nonzero(residuals <= config.structured_tolerance)
    inlier_fraction = inliers / residuals.size
    if inlier_fraction < 1.0 - config.structured_outlier_fraction:
        return None
    if np.unique(uniq_val).size < config.structured_min_distinct:
        return None
    return {"slope": slope, "intercept": intercept, "inlier_fraction": inlier_fraction}


class _SortRecorder:
    """Stands in for numpy inside the detector and records every sort."""

    def __init__(self):
        self.sorts = []

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, array, **kwargs):
        self.sorts.append(("unique", np.size(array), sorted(kwargs)))
        return np.unique(array, **kwargs)

    def argsort(self, array, *args, **kwargs):
        self.sorts.append(("argsort", np.size(array), []))
        return np.argsort(array, *args, **kwargs)


@pytest.mark.parametrize("values", ["linear", "noise"])
def test_deepwave_view_sorts_no_indices(monkeypatch, values):
    index = np.arange(ELEMENTS, dtype=np.float64)
    if values == "linear":
        data = 0.5 * index + 1.0
    else:
        data = np.random.default_rng(0).standard_normal(ELEMENTS)
    view = _deepwave_view(data)
    config = PatternConfig()
    expected = _unique_path(view, config)
    recorder = _SortRecorder()
    monkeypatch.setattr(structured, "np", recorder)
    hit = detect_structured_values(view, config)
    monkeypatch.undo()
    # The only sort left counts the distinct values of the 49,152
    # deduplicated points; no index is sorted.
    assert [call for call in recorder.sorts if call[0] != "unique"] == []
    assert all(size == ELEMENTS and kwargs == [] for _, size, kwargs in recorder.sorts)
    if expected is None:
        assert hit is None
    else:
        assert hit is not None and hit.metrics == expected
    assert (hit is None) == (values == "noise")
