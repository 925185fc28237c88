"""Fine-grained detectors: frequent values, single value, single zero.

Definitions 3.3-3.5.  Single value and single zero are special cases of
frequent values; all three are reported independently because each
suggests a different optimization (conditional computation for frequent
values; scalar contraction or sparse structures for single value/zero).

All three read the view's :class:`~repro.patterns.base.ViewSummary`;
:func:`value_hits` takes the summary separately so the approximate-values
detector can run the three on a truncated one.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.gpu.dtypes import unsigned_of_width
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
    ViewSummary,
)


def _frequent_hit(
    summary: ViewSummary, view: ObjectAccessView, config: PatternConfig
) -> Optional[PatternHit]:
    """Definition 3.3 on a summary: some value's share reaches T."""
    counts = summary.counts
    top = counts.max()
    share = top / summary.n
    if share < config.frequent_threshold:
        return None
    if np.count_nonzero(counts == top) == 1:
        index = int(counts.argmax())
    else:
        # A tie: the descending argsort of the counts picks among the
        # tied values (argmax would pick differently).
        index = np.argsort(counts)[::-1][0]
    value = summary.distinct[index]
    return PatternHit(
        pattern=Pattern.FREQUENT_VALUES,
        object_label=view.object_label,
        api_ref=view.api_ref,
        metrics={
            "top_value": value.item(),
            "share": float(share),
            "distinct_values": int(summary.distinct.size),
        },
        detail=(
            f"value {value!r} accounts for {share:.1%} of "
            f"{summary.n} accesses (threshold {config.frequent_threshold:.0%})"
        ),
    )


def _single_value_hit(
    summary: ViewSummary, view: ObjectAccessView, config: PatternConfig
) -> Optional[PatternHit]:
    """Definition 3.4 on a summary: all values are the same.

    Sameness is numeric (+0.0 and -0.0 are one value), with a bitwise
    fallback that makes uniformly-NaN data a single value.
    """
    if summary.distinct.size != 1:
        return None
    if summary.has_nan:
        bits = summary.values.view(unsigned_of_width(summary.values.itemsize))
        if not (bits == bits[0]).all():
            return None
    first = summary.first
    return PatternHit(
        pattern=Pattern.SINGLE_VALUE,
        object_label=view.object_label,
        api_ref=view.api_ref,
        metrics={"value": first.item(), "accesses": int(summary.n)},
        detail=f"all {summary.n} accesses see the value {first!r}",
    )


def _single_zero_hit(
    summary: ViewSummary, view: ObjectAccessView, config: PatternConfig
) -> Optional[PatternHit]:
    """Definition 3.5 on a summary: all values are zero."""
    if summary.distinct.size != 1 or summary.has_nan or summary.distinct[0] != 0:
        return None
    return PatternHit(
        pattern=Pattern.SINGLE_ZERO,
        object_label=view.object_label,
        api_ref=view.api_ref,
        metrics={"accesses": int(summary.n)},
        detail=f"all {summary.n} accesses see zero",
    )


def value_hits(
    summary: ViewSummary, view: ObjectAccessView, config: PatternConfig
) -> List[PatternHit]:
    """The three value-distribution hits of one summary, in order."""
    hits = []
    for check in (_frequent_hit, _single_value_hit, _single_zero_hit):
        hit = check(summary, view, config)
        if hit is not None:
            hits.append(hit)
    return hits


def _enough(view: ObjectAccessView, config: PatternConfig) -> bool:
    return np.size(view.values) >= config.min_accesses


def detect_frequent_values(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> Optional[PatternHit]:
    """Definition 3.3: some value's access share exceeds threshold T."""
    if not _enough(view, config):
        return None
    return _frequent_hit(view.summary, view, config)


def detect_single_value(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> Optional[PatternHit]:
    """Definition 3.4: all accessed values are the same."""
    if not _enough(view, config):
        return None
    return _single_value_hit(view.summary, view, config)


def detect_single_zero(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> Optional[PatternHit]:
    """Definition 3.5: all accessed values are zero."""
    if not _enough(view, config):
        return None
    return _single_zero_hit(view.summary, view, config)


def run_fine_value_detectors(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> List[PatternHit]:
    """Run the three value-distribution detectors on one view."""
    if not _enough(view, config):
        return []
    return value_hits(view.summary, view, config)
