"""Heavy-type detector (Definition 3.6).

An object matches when its declared access type is more expressive than
the values actually stored: int32 values that always fit int8 (the
Rodinia/bfs ``g_cost`` example), or float64 values exactly representable
in float32 (the lavaMD ``rA`` example, whose elements are ten values
from {0.1, ..., 1.0} — representable after demotion to a uint8 code).

Integers demote by range containment; floats demote only when every
value round-trips exactly through the narrower type (the paper's
optimizations are lossless).  Floats whose distinct-value count fits a
small integer code additionally qualify for *code demotion* (what the
lavaMD optimization does: uint8 codes plus a host-side decode table).

Every test is per value and treats values alike that compare equal
(±0 give the same answer, and a NaN always passes), so the detector runs
it on the view summary's distinct values rather than on every access.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.dtypes import DType, minimal_integer_type
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
)

#: Maximum distinct float values for the code-demotion variant: what a
#: uint8 code can index.
_MAX_CODEBOOK = 256


def minimal_value_type(values: np.ndarray, declared: DType) -> DType:
    """The narrowest type that losslessly represents ``values``.

    Returns ``declared`` itself when no narrowing is possible.  The
    answer depends only on the set of distinct values, so ``values`` may
    be those alone.
    """
    values = np.asarray(values).ravel()
    if values.size == 0:
        return declared
    if not declared.is_float:
        lo, hi = int(values.min()), int(values.max())
        narrow = minimal_integer_type(lo, hi, signed=declared.is_signed)
        return narrow if narrow.bits < declared.bits else declared
    # Floats: exact-integer check first (int codes are cheapest) ...
    if np.isfinite(values).all() and np.all(values == np.trunc(values)):
        lo, hi = int(values.min()), int(values.max())
        try:
            narrow = minimal_integer_type(lo, hi, signed=lo < 0)
        except ValueError:
            narrow = declared
        if narrow.bits < declared.bits:
            return narrow
    # ... then exact float demotion, narrowing while the round-trip
    # holds: a value that survives float16 survives float32.
    narrow = declared
    for candidate in (DType.FLOAT32, DType.FLOAT16):
        if candidate.bits >= declared.bits:
            continue
        # A value beyond the narrower range overflows to inf and so
        # fails the round-trip; a signalling NaN raises the invalid flag
        # and still round-trips as a NaN.  Neither is worth a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            demoted = values.astype(candidate.np_dtype).astype(values.dtype)
        # NaN-safe exact round-trip comparison.
        both_nan = np.isnan(values) & np.isnan(demoted)
        if not np.all((demoted == values) | both_nan):
            break
        narrow = candidate
    return narrow


def detect_heavy_type(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> Optional[PatternHit]:
    """Report heavy type when a strictly narrower lossless type exists."""
    if np.size(view.values) < config.min_accesses:
        return None
    declared = view.dtype
    distinct = view.summary.distinct
    narrow = minimal_value_type(distinct, declared)
    saving = declared.bits - narrow.bits
    codebook = None
    if narrow == declared and declared.is_float and distinct.size <= _MAX_CODEBOOK:
        # Code demotion: few distinct values -> uint8 codes.
        codebook = int(distinct.size)
        narrow = DType.UINT8
        saving = declared.bits - narrow.bits
    if saving < config.heavy_type_min_saving_bits:
        return None
    metrics = {
        "declared": declared.name,
        "minimal": narrow.name,
        "saving_bits": saving,
    }
    if codebook is not None:
        metrics["codebook_size"] = codebook
        detail = (
            f"{declared.name} values take only {codebook} distinct values; "
            f"demote to {narrow.name} codes (saves {saving} bits/elem)"
        )
    else:
        detail = (
            f"declared {declared.name} but values fit {narrow.name} "
            f"(saves {saving} bits/elem)"
        )
    return PatternHit(
        pattern=Pattern.HEAVY_TYPE,
        object_label=view.object_label,
        api_ref=view.api_ref,
        metrics=metrics,
        detail=detail,
    )
