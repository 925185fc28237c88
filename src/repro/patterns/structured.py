"""Structured-values detector (Definition 3.7).

An object matches when the values accessed and the memory addresses
storing them are linearly correlated — e.g. the srad_v1 neighbour-index
arrays ``d_iN``/``d_iS``/``d_jW``/``d_jE``, where ``value = a * index +
b``.  Such loads can be replaced by computing the value from the index.

Real structured arrays have boundary exceptions (the first element of a
``i-1`` neighbour array is clamped to 0), so the detector uses a robust
Theil–Sen-style fit: the slope is the median of consecutive difference
quotients, the intercept the median residual, and the pattern is
accepted when at least ``1 - structured_outlier_fraction`` of the
points lie on the line within tolerance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
)


def fit_structured(
    indices: np.ndarray, values: np.ndarray
) -> Optional[tuple]:
    """Robust linear fit ``value ~ slope * index + intercept``.

    Returns ``(slope, intercept, residuals)``, where ``residuals`` holds
    each point's ``|predicted - value|`` over ``max(max |value|, 1)``,
    in ascending index order; or ``None`` when there is no structure to
    fit: fewer than two distinct indices, or a zero slope.
    """
    if not (indices[1:] > indices[:-1]).all():
        order = np.argsort(indices)
        indices, values = indices[order], values[order]
    x = indices.astype(np.float64)
    y = values.astype(np.float64)
    dx = np.diff(x)
    keep = dx != 0
    if not keep.any():
        return None
    # Huge values overflow to inf (and inf - inf is NaN); such a fit
    # simply fails the inlier test.
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(y)[keep] / dx[keep]
        slope = float(np.median(slopes))
        if slope == 0.0:
            return None
        intercept = float(np.median(y - slope * x))
        predicted = slope * x + intercept
        scale = max(float(np.abs(y).max()), 1.0)
        residuals = np.abs(predicted - y) / scale
    return slope, intercept, residuals


def detect_structured_values(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> Optional[PatternHit]:
    """Report structured values when value ~ linear(address) holds."""
    n = np.size(view.values)
    if n < config.min_accesses or n != np.size(view.addresses):
        return None
    # The summary rejects non-finite and nearly constant views before
    # any address work.  Nearly constant data is single value / frequent
    # values, not structured (the patterns are reported separately).
    summary = view.summary
    if not summary.finite or summary.distinct.size < config.structured_min_distinct:
        return None
    values = summary.values.astype(np.float64)
    addresses = np.asarray(view.addresses).ravel().astype(np.float64)
    # Work on element indices rather than raw addresses for conditioning.
    indices = (addresses - addresses.min()) / max(view.itemsize, 1)
    # Deduplicate by address: repeated accesses to one element must see
    # one value for a functional relation to exist at all.
    if (indices[1:] > indices[:-1]).all():
        uniq_idx, uniq_val = indices, values
    else:
        uniq_idx, first_pos = np.unique(indices, return_index=True)
        uniq_val = values[first_pos]
    if uniq_idx.size < config.structured_min_distinct:
        return None
    fit = fit_structured(uniq_idx, uniq_val)
    if fit is None:
        return None
    slope, intercept, residuals = fit
    inliers = residuals <= config.structured_tolerance
    inlier_fraction = float(np.count_nonzero(inliers)) / residuals.size
    if inlier_fraction < 1.0 - config.structured_outlier_fraction:
        return None
    # The deduplicated values must also be distinct enough.  Checked
    # last, as it needs a sort unless every element was kept and the
    # cast to float64 is injective (all but 64-bit integers): then the
    # summary already counted them.
    injective = summary.values.dtype.kind == "f" or summary.values.itemsize < 8
    if (uniq_idx.size < n or not injective) and (
        np.unique(uniq_val).size < config.structured_min_distinct
    ):
        return None
    return PatternHit(
        pattern=Pattern.STRUCTURED_VALUES,
        object_label=view.object_label,
        api_ref=view.api_ref,
        metrics={
            "slope": slope,
            "intercept": intercept,
            "inlier_fraction": inlier_fraction,
        },
        detail=(
            f"value = {slope:.6g} * index + {intercept:.6g} for "
            f"{inlier_fraction:.1%} of elements; compute from the index "
            f"instead of loading"
        ),
    )
