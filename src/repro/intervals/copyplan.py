"""Figure 5 memory-copy strategies and the adaptive selector.

After merging, ValueExpert must move the accessed values of each data
object to the CPU to update its snapshot.  Three strategies exist:

- **direct copy** — copy the whole allocation (wastes bandwidth on
  untouched bytes);
- **min-max copy** — one copy spanning ``[min(start), max(end))`` across
  all merged intervals (one latency, possibly some waste);
- **segment copy** — one copy per merged interval (no waste, one
  per-copy latency each).

The adaptive mechanism (Section 6.1) uses segment copy "when the
distribution of accessed intervals is sparse and the number of
intervals is small, and switches to the min-max copy when the
distribution is dense or the number of intervals is large".  We encode
that rule with an explicit cost model so the choice is auditable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.intervals.interval import as_interval_array, total_covered_bytes


class CopyStrategy(enum.Enum):
    """One of the Figure 5 strategies."""

    DIRECT = "direct"
    MIN_MAX = "min-max"
    SEGMENT = "segment"


@dataclass(frozen=True)
class AdaptiveCopyPolicy:
    """Tunable thresholds for the adaptive strategy selector.

    Attributes
    ----------
    max_segments:
        Above this many merged intervals, per-copy latency dominates and
        the selector abandons segment copy ("the number of intervals is
        large").
    dense_fraction:
        If the covered bytes exceed this fraction of the min-max span,
        the distribution is dense and a single min-max copy wastes
        little.
    per_copy_latency_bytes:
        The latency of issuing one copy, expressed as the number of
        bytes one could have transferred instead; lets byte waste and
        invocation overhead be compared in one unit.
    """

    max_segments: int = 64
    dense_fraction: float = 0.5
    per_copy_latency_bytes: int = 4096
    #: Force one strategy regardless of the rule (ablation studies).
    force: Optional["CopyStrategy"] = None


@dataclass(frozen=True)
class CopyPlan:
    """The chosen strategy plus the ranges to copy and its modelled cost."""

    strategy: CopyStrategy
    #: ``[start, end)`` byte ranges to transfer, relative to the device
    #: address space (absolute addresses, as the merge produces them).
    ranges: Tuple[Tuple[int, int], ...]
    #: Bytes actually transferred (>= covered bytes).
    bytes_transferred: int
    #: Number of copy API invocations.
    invocations: int
    #: Cost in equivalent bytes (transfer + per-invocation latency).
    cost_bytes: int


def _plan(strategy: CopyStrategy, ranges: List[Tuple[int, int]], policy: AdaptiveCopyPolicy) -> CopyPlan:
    nbytes = sum(end - start for start, end in ranges)
    invocations = len(ranges)
    return CopyPlan(
        strategy=strategy,
        ranges=tuple(ranges),
        bytes_transferred=nbytes,
        invocations=invocations,
        cost_bytes=nbytes + invocations * policy.per_copy_latency_bytes,
    )


def plan_direct(
    object_start: int, object_size: int, policy: AdaptiveCopyPolicy = AdaptiveCopyPolicy()
) -> CopyPlan:
    """Figure 5a: copy the entire allocation."""
    return _plan(
        CopyStrategy.DIRECT, [(object_start, object_start + object_size)], policy
    )


def plan_min_max(
    merged: Iterable, policy: AdaptiveCopyPolicy = AdaptiveCopyPolicy()
) -> CopyPlan:
    """Figure 5b: one copy spanning min(start)..max(end)."""
    arr = as_interval_array(merged)
    if arr.shape[0] == 0:
        return _plan(CopyStrategy.MIN_MAX, [], policy)
    lo = int(arr[:, 0].min())
    hi = int(arr[:, 1].max())
    return _plan(CopyStrategy.MIN_MAX, [(lo, hi)], policy)


def plan_segment(
    merged: Iterable, policy: AdaptiveCopyPolicy = AdaptiveCopyPolicy()
) -> CopyPlan:
    """Figure 5c: one copy per merged interval."""
    arr = as_interval_array(merged)
    ranges = [(int(start), int(end)) for start, end in arr]
    return _plan(CopyStrategy.SEGMENT, ranges, policy)


def plan_copy(
    merged: Iterable,
    object_start: int,
    object_size: int,
    policy: AdaptiveCopyPolicy = AdaptiveCopyPolicy(),
) -> CopyPlan:
    """Adaptively choose among the three strategies (Section 6.1 rule).

    Segment copy when the accessed distribution is sparse *and* the
    interval count is small; min-max copy when dense or numerous; direct
    copy degenerates to min-max unless the whole object is spanned
    anyway, in which case the plans coincide.
    """
    if (
        policy.force is None
        and policy.dense_fraction <= 1.0
        and isinstance(merged, np.ndarray)
        and merged.shape == (1, 2)
        and merged.dtype == np.uint64
    ):
        # One non-empty merged interval (the collector's usual case) is
        # trivially dense (covered == span), so the adaptive rule always
        # lands on the min-max plan; build it without normalising the
        # input or the coverage reductions the general case needs.
        lo, hi = int(merged[0, 0]), int(merged[0, 1])
        if hi > lo:
            nbytes = hi - lo
            return CopyPlan(
                strategy=CopyStrategy.MIN_MAX,
                ranges=((lo, hi),),
                bytes_transferred=nbytes,
                invocations=1,
                cost_bytes=nbytes + policy.per_copy_latency_bytes,
            )
    arr = as_interval_array(merged)
    if arr.shape[0] == 0:
        return _plan(CopyStrategy.SEGMENT, [], policy)
    if policy.force is CopyStrategy.DIRECT:
        return plan_direct(object_start, object_size, policy)
    if policy.force is CopyStrategy.MIN_MAX:
        return plan_min_max(arr, policy)
    if policy.force is CopyStrategy.SEGMENT:
        return plan_segment(arr, policy)
    covered = total_covered_bytes(arr)
    span = int(arr[:, 1].max()) - int(arr[:, 0].min())
    dense = span > 0 and covered / span >= policy.dense_fraction
    many = arr.shape[0] > policy.max_segments
    if dense or many:
        return plan_min_max(arr, policy)
    return plan_segment(arr, policy)
