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

from typing import Optional, Tuple, Union

import numpy as np

from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
)


#: float64 holds every integer of smaller magnitude exactly.
_EXACT_LIMIT = 2**53


def first_accesses(
    addresses: np.ndarray, step: int
) -> Tuple[np.ndarray, Union[slice, np.ndarray]]:
    """``np.unique(indices, return_index=True)`` of the element indices
    ``(addresses - addresses.min()) / step`` in float64, with no sort
    when the address stream allows it.

    Returns the ascending distinct indices and the positions of their
    first accesses: a slice when no sort was needed, else an index
    array.  Integer addresses need none in two cases, both only when
    float64 holds the addresses involved exactly (condition 1 below):

    - they ascend strictly throughout, so every access is its
      element's first;
    - they are *covering*: the longest strictly ascending prefix
      ``addresses[:p]`` is the run ``addresses[0] + k * step`` for
      ``k < p``, and every later address repeats one of its elements.
      The indices then deduplicate to ``0 .. p-1``, each first
      accessed at position ``k``.

    A covering stream is recognised by four conditions, with ``a`` the
    addresses and ``p < n`` the prefix length:

    1. ``-2**53 < a[0]`` and ``a[p-1] < 2**53``;
    2. ``a[p-1] - a[0] == (p - 1) * step``;
    3. every later address lies in ``[a[0], a[p-1]]``;
    4. every address is congruent to ``a[0]`` modulo ``step``.

    Condition 1 keeps every address exact in float64, and with
    condition 2 so is each ``a[k] - a[0] = k * step`` for any head that
    fits in memory, so ``np.unique`` would see the indices ``k`` too.
    """
    n = addresses.size
    if addresses.dtype.kind in "iu" and n:
        ascends = addresses[1:] > addresses[:-1]
        head = n if ascends.all() else int(ascends.argmin()) + 1
        first = int(addresses[0])
        if -_EXACT_LIMIT < first and int(addresses[head - 1]) < _EXACT_LIMIT:
            if head == n:
                return (addresses.astype(np.float64) - first) / step, slice(None)
            if _covers(addresses, head, step):
                return np.arange(head, dtype=np.float64), slice(head)
    addresses = addresses.astype(np.float64)
    return np.unique((addresses - addresses.min()) / step, return_index=True)


def _covers(addresses: np.ndarray, head: int, step: int) -> bool:
    """Conditions 2-4 of a covering stream (see :func:`first_accesses`)."""
    first, last = addresses[0], addresses[head - 1]
    if int(last) - int(first) != (head - 1) * step:
        return False
    rest = addresses[head:]
    if rest.min() < first or rest.max() > last:
        return False
    if step == 1:
        return True
    if step & (step - 1):
        return not (addresses % step != int(first) % step).any()
    # A power-of-two step (every dtype's) compares low bits instead: a
    # third of the cost of an integer remainder.
    return not np.bitwise_or.reduce(addresses ^ first) & (step - 1)


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
    # Work on element indices rather than raw addresses for conditioning,
    # deduplicated by address: repeated accesses to one element must see
    # one value for a functional relation to exist at all.
    uniq_idx, first_pos = first_accesses(
        np.asarray(view.addresses).ravel(), max(view.itemsize, 1)
    )
    uniq_val = summary.values[first_pos].astype(np.float64)
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
