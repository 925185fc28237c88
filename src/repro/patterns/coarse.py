"""Coarse-grained detectors: redundant values and duplicate values.

Definition 3.1 (redundant values): object D matches at API A if D is
written by A and some or all of D's elements are not changed by A.
ValueExpert compares the snapshots before/after A and reports the
pattern when the unchanged fraction exceeds a threshold (33% default).

Definition 3.2 (duplicate values): objects D1, D2 match if they hold
the same values at any GPU API; detected by grouping SHA256 digests of
snapshots (Section 5.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.gpu.dtypes import unsigned_of_width
from repro.patterns.base import Pattern, PatternConfig, PatternHit, SnapshotPair
from repro.utils.hashing import snapshot_digest


def unchanged_fraction(pair: SnapshotPair) -> float:
    """Fraction of written elements whose value did not change.

    Only elements the API actually wrote participate (Section 6.1:
    ValueExpert "only compares the values stored in memory addresses
    that are accessed by A").
    """
    before = np.asarray(pair.before).ravel()
    after = np.asarray(pair.after).ravel()
    if before.size != after.size:
        raise ValueError(
            f"snapshot sizes differ ({before.size} vs {after.size})"
        )
    if before.dtype != after.dtype:
        raise ValueError(
            f"snapshot dtypes differ ({before.dtype} vs {after.dtype})"
        )
    if pair.written_indices is not None:
        idx = np.asarray(pair.written_indices, dtype=np.int64)
        if _is_run(idx, before.size):
            # One ascending run of in-range indices, which is what the
            # collector records for a whole-object memcpy or memset and
            # for a single-interval kernel write: compare views of the
            # run instead of gathering copies through the index array.
            before = before[idx[0] : idx[-1] + 1]
            after = after[idx[0] : idx[-1] + 1]
        else:
            before = before[idx]
            after = after[idx]
    if before.size == 0:
        return 0.0
    # Bitwise comparison, one unsigned word per element: NaN == NaN
    # counts as unchanged (matching the raw-snapshot semantics of the
    # tool), and -0.0 differs from +0.0.
    word = unsigned_of_width(before.dtype.itemsize)
    same = np.ascontiguousarray(before).view(word) == np.ascontiguousarray(after).view(word)
    return float(np.count_nonzero(same)) / before.size


def _is_run(idx: np.ndarray, size: int) -> bool:
    """Whether ``idx`` is exactly ``arange(idx[0], idx[-1] + 1)`` and
    lies inside ``[0, size)``."""
    return (
        idx.ndim == 1
        and idx.size > 0
        and 0 <= idx[0]
        and idx[-1] < size
        and idx[-1] - idx[0] + 1 == idx.size
        and bool((idx[1:] > idx[:-1]).all())
    )


def detect_redundant_values(
    pair: SnapshotPair,
    object_label: str,
    api_ref: str,
    config: PatternConfig = PatternConfig(),
) -> Optional[PatternHit]:
    """Report the redundant-values pattern when it holds for ``pair``."""
    return redundant_values_hit(unchanged_fraction(pair), object_label, api_ref, config)


def redundant_values_hit(
    fraction: float,
    object_label: str,
    api_ref: str,
    config: PatternConfig = PatternConfig(),
) -> Optional[PatternHit]:
    """The redundant-values hit for an already computed unchanged fraction."""
    if fraction < config.redundant_threshold:
        return None
    return PatternHit(
        pattern=Pattern.REDUNDANT_VALUES,
        object_label=object_label,
        api_ref=api_ref,
        metrics={"unchanged_fraction": fraction},
        detail=(
            f"{fraction:.1%} of written elements unchanged "
            f"(threshold {config.redundant_threshold:.0%})"
        ),
    )


def detect_duplicate_values(
    snapshots: Iterable[Tuple[str, np.ndarray]],
    api_ref: str,
) -> List[PatternHit]:
    """Group objects by snapshot digest; each group >= 2 is a hit.

    ``snapshots`` yields ``(object_label, snapshot)`` pairs observed at
    the same GPU API.  One hit is produced per duplicate *group*, with
    the member labels in its metrics.
    """
    groups: Dict[str, List[str]] = {}
    for label, snapshot in snapshots:
        digest = snapshot_digest(np.asarray(snapshot))
        groups.setdefault(digest, []).append(label)
    hits: List[PatternHit] = []
    for digest, labels in groups.items():
        if len(labels) < 2:
            continue
        hits.append(
            PatternHit(
                pattern=Pattern.DUPLICATE_VALUES,
                object_label=labels[0],
                api_ref=api_ref,
                metrics={"group": tuple(labels), "digest": digest},
                detail=f"{len(labels)} objects bitwise identical: {', '.join(labels)}",
            )
        )
    return hits
