"""Approximate-values detector (Definition 3.8).

Floating-point values whose mantissas, truncated to K bits, exhibit a
fine-grained pattern match *approximate values* — the hotspot3D example:
within 2% RMSE the ``tIn_d`` array shows the single-value pattern.

The detector truncates each value's mantissa to the configured K bits
(zeroing the discarded bits, the paper's relaxation), re-runs the exact
fine-grained detectors on the truncated values, and reports a hit only
for patterns that appear *after* truncation but not before — otherwise
the exact pattern already covers the object.

Both runs read summaries, not values.  Truncation is monotone, so the
truncated summary comes from the exact one without another sort: see
:func:`truncated_summary`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
    ViewSummary,
    unsign_zero,
)
from repro.patterns.fine import value_hits

#: Mantissa widths of IEEE types.
_MANTISSA_BITS = {np.dtype(np.float16): 10, np.dtype(np.float32): 23, np.dtype(np.float64): 52}
_UINT_OF = {np.dtype(np.float16): np.uint16, np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def truncate_mantissa(values: np.ndarray, keep_bits: int) -> np.ndarray:
    """Zero all but the top ``keep_bits`` mantissa bits of each value.

    Works on any IEEE float dtype; sign and exponent are preserved, so
    the relative error is bounded by ``2**-keep_bits``.
    """
    values = np.asarray(values)
    dtype = values.dtype
    if dtype not in _MANTISSA_BITS:
        raise ValueError(f"mantissa truncation requires a float dtype, got {dtype}")
    mantissa = _MANTISSA_BITS[dtype]
    drop = max(0, mantissa - keep_bits)
    if drop == 0:
        return values.copy()
    uint = _UINT_OF[dtype]
    total_bits = dtype.itemsize * 8
    mask = uint((2**total_bits - 1) ^ (2**drop - 1))
    bits = values.view(uint)
    return (bits & mask).view(dtype)


def truncated_summary(summary: ViewSummary, keep_bits: int) -> ViewSummary:
    """The summary of ``truncate_mantissa(values, keep_bits)``.

    Truncation is monotone, so truncating the sorted distinct values and
    merging equal neighbours gives what ``np.unique`` of the truncated
    values would, with the merged counts summed and the zero entry made
    +0.0 as :meth:`ViewSummary.of` does.  A NaN falls back to that
    ``np.unique``, because truncation can turn one into ±inf.
    """
    if summary.has_nan:
        return ViewSummary.of(truncate_mantissa(summary.values, keep_bits))
    distinct = truncate_mantissa(summary.distinct, keep_bits)
    starts = np.flatnonzero(
        np.concatenate(([True], distinct[1:] != distinct[:-1]))
    )
    distinct = distinct[starts]
    unsign_zero(distinct)
    return ViewSummary(
        n=summary.n,
        first=truncate_mantissa(summary.values[:1], keep_bits)[0],
        distinct=distinct,
        counts=np.add.reduceat(summary.counts, starts),
        has_nan=False,
    )


def detect_approximate_values(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> List[PatternHit]:
    """Report fine patterns that emerge only under mantissa truncation."""
    values = np.asarray(view.values)
    if not np.issubdtype(values.dtype, np.floating):
        return []
    if values.size < config.min_accesses:
        return []
    summary = view.summary
    exact_hits = {hit.pattern for hit in value_hits(summary, view, config)}
    truncated = truncated_summary(summary, config.approximate_mantissa_bits)
    hits: List[PatternHit] = []
    for hit in value_hits(truncated, view, config):
        if hit.pattern in exact_hits:
            continue
        hits.append(
            PatternHit(
                pattern=Pattern.APPROXIMATE_VALUES,
                object_label=view.object_label,
                api_ref=view.api_ref,
                metrics={
                    "underlying": hit.pattern.value,
                    "mantissa_bits": config.approximate_mantissa_bits,
                    **hit.metrics,
                },
                detail=(
                    f"with mantissas truncated to "
                    f"{config.approximate_mantissa_bits} bits, the object "
                    f"matches {hit.pattern.value}: {hit.detail}"
                ),
            )
        )
    return hits
