"""Shared vocabulary of the pattern detectors."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.gpu.dtypes import DType


class Pattern(enum.Enum):
    """The paper's eight value patterns (Definitions 3.1-3.8)."""

    REDUNDANT_VALUES = "redundant values"
    DUPLICATE_VALUES = "duplicate values"
    FREQUENT_VALUES = "frequent values"
    SINGLE_VALUE = "single value"
    SINGLE_ZERO = "single zero"
    HEAVY_TYPE = "heavy type"
    STRUCTURED_VALUES = "structured values"
    APPROXIMATE_VALUES = "approximate values"

    @property
    def is_coarse(self) -> bool:
        """Coarse-grained patterns are checked per GPU API on snapshots."""
        return self in (Pattern.REDUNDANT_VALUES, Pattern.DUPLICATE_VALUES)


@dataclass(frozen=True)
class PatternConfig:
    """Detector thresholds.

    Defaults follow the paper where it states them: the redundant-values
    threshold is 33% ("Based on our experiments, we use a threshold of
    33%"), and the approximate analysis truncates mantissas to ``K``
    bits (we default to 10, float16's mantissa width).
    """

    #: Minimum fraction of written-but-unchanged elements for the
    #: redundant-values pattern.
    redundant_threshold: float = 0.33
    #: Minimum access share of the most frequent value(s) for the
    #: frequent-values pattern (the paper's predefined threshold T).
    frequent_threshold: float = 0.5
    #: Fine-grained detectors need at least this many accesses to fire
    #: (a one-element object trivially matches single value).
    min_accesses: int = 8
    #: Minimum bit saving for heavy type (demoting 64 -> 32 qualifies;
    #: "demotions" of 0 bits do not).
    heavy_type_min_saving_bits: int = 8
    #: Max |residual| (relative to value scale) for a point to count as
    #: lying on the structured-values line.
    structured_tolerance: float = 1e-6
    #: Fraction of points allowed off the line (boundary clamps of
    #: neighbour-index arrays are legitimate exceptions).
    structured_outlier_fraction: float = 0.02
    #: Minimum distinct values for structured values (a constant object
    #: is single value, not structured).
    structured_min_distinct: int = 3
    #: Mantissa bits kept by the approximate-values analysis (paper's K).
    approximate_mantissa_bits: int = 10
    #: A heavy-type hit on floats requires exact representability after
    #: demotion; integers use range containment.


@dataclass
class PatternHit:
    """One detected pattern instance on one data object at one GPU API."""

    pattern: Pattern
    object_label: str
    api_ref: str
    #: Detector-specific quantities (fractions, candidate types, slopes).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: One-line human-readable account.
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"[{self.pattern.value}] object={self.object_label} "
            f"api={self.api_ref}: {self.detail}"
        )


@dataclass
class SnapshotPair:
    """Value snapshots of one object before/after a GPU API (coarse)."""

    before: np.ndarray
    after: np.ndarray
    #: Element indices written by the API (None = treat all as written).
    written_indices: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class ViewSummary:
    """What one ``np.unique`` pass tells about a view's values.

    Every fine-grained detector reads this instead of re-deriving it
    from the raw values.  ``np.unique`` semantics: the distinct values
    ascend; +0.0 and -0.0 are one entry, carrying whichever sign the
    sort put first; and all NaNs are one trailing entry, whatever their
    payloads.
    """

    #: Number of values.
    n: int
    #: ``values[0]`` as a numpy scalar (None for an empty view).
    first: object
    #: Sorted distinct values.
    distinct: np.ndarray
    #: Occurrences of each distinct value.
    counts: np.ndarray
    #: Whether some value is a NaN.
    has_nan: bool
    #: The flattened values; None for a summary derived without them
    #: (which never holds a NaN).
    values: Optional[np.ndarray] = None

    @classmethod
    def of(cls, values: np.ndarray) -> "ViewSummary":
        """Summarise ``values`` with one sort."""
        values = np.asarray(values).ravel()
        distinct, counts = np.unique(values, return_counts=True)
        has_nan = (
            distinct.dtype.kind == "f"
            and distinct.size > 0
            and bool(np.isnan(distinct[-1]))
        )
        first = values[0] if values.size else None
        return cls(values.size, first, distinct, counts, has_nan, values)

    @property
    def finite(self) -> bool:
        """Whether every value is finite (no NaN and no infinity)."""
        if self.distinct.dtype.kind != "f":
            return True
        return not self.has_nan and bool(
            np.isfinite(self.distinct[0]) and np.isfinite(self.distinct[-1])
        )


@dataclass
class ObjectAccessView:
    """All fine-grained information about one object at one GPU API.

    Built by the online analyzer from access records; consumed by the
    fine-grained detectors, which share its :attr:`summary`.
    """

    object_label: str
    api_ref: str
    #: Accessed values, reinterpreted with the access type.
    values: np.ndarray
    #: Byte addresses parallel to ``values``.
    addresses: np.ndarray
    #: The access type in force (declared or inferred by slicing).
    dtype: DType
    #: Element size in bytes of the underlying object.
    itemsize: int = 4

    @functools.cached_property
    def summary(self) -> ViewSummary:
        """The values' :class:`ViewSummary`, computed on first use."""
        return ViewSummary.of(self.values)
