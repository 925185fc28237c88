"""Per-element reference detectors — the pattern test oracle.

Like :func:`repro.intervals.interval.merge_reference`, this module keeps
a deliberately naive implementation of the value patterns around as
ground truth: Definition 3.1 (the unchanged fraction behind redundant
values) and Definitions 3.3-3.8 (the six fine-grained patterns), one
element at a time in plain Python.  It imports none of the vectorised
detectors (``fine``, ``heavy_type``, ``structured``, ``approximate``,
``coarse``, ``engine``), so ``tests/patterns/test_reference_differential.py``
can assert that :meth:`PatternEngine.analyze_view` reports exactly the
patterns and metrics computed here.

The semantics it pins down:

- Values are compared numerically: +0.0 and -0.0 are one value, and
  every NaN is one value whatever its payload (``np.unique`` with
  ``equal_nan``).
- Single value also holds when every element has the same bits, which
  makes uniformly-NaN data a single value.
- Snapshots, by contrast, are compared bitwise: NaN payloads that match
  are unchanged, and -0.0 differs from +0.0.
- Heavy-type float demotion needs an exact round-trip per value; a NaN
  always passes and a value that overflows the narrower type fails.
- Approximate values truncates the raw bits, so a NaN whose payload
  lives only in the dropped bits becomes an infinity.

The frequent value is reported as :class:`AnyOf`, because two things
about it are not a function of the values alone: which value wins a tie
at the top count (the detector breaks the tie by sort order), and the
sign of a frequent zero when the zeros mix -0.0 and +0.0.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.dtypes import DType
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    SnapshotPair,
)

#: struct codes of the element types (native byte order).
_CODES = {
    "int8": "b", "uint8": "B", "int16": "h", "uint16": "H",
    "int32": "i", "uint32": "I", "int64": "q", "uint64": "Q",
    "float16": "e", "float32": "f", "float64": "d",
}
#: Stored mantissa bits of the IEEE types.
_MANTISSA = {"float16": 10, "float32": 23, "float64": 52}
#: Integer demotion ladders, narrowest first, with inclusive ranges.
_SIGNED = [(t, -(2 ** (t.bits - 1)), 2 ** (t.bits - 1) - 1)
           for t in (DType.INT8, DType.INT16, DType.INT32, DType.INT64)]
_UNSIGNED = [(t, 0, 2 ** t.bits - 1)
             for t in (DType.UINT8, DType.UINT16, DType.UINT32, DType.UINT64)]
#: Most distinct floats a uint8 code can index.
_CODEBOOK = 256

#: One element: its raw bits and its value as a Python number.
Element = Tuple[int, object]
Metrics = Dict[str, object]


@dataclass(frozen=True)
class AnyOf:
    """A metric the detector may report as any one of these values."""

    options: Tuple[object, ...]


def _value_class(number) -> object:
    """The numeric equality class of a value: ±0 are one, NaNs are one."""
    if number != number:
        return "nan"
    if number == 0:
        return 0
    return number


def _elements(values: np.ndarray) -> List[Element]:
    """``(bits, number)`` of every element, in order."""
    values = np.ascontiguousarray(np.asarray(values).ravel())
    code = "=" + _CODES[values.dtype.name]
    size = values.dtype.itemsize
    raw = values.tobytes()
    elements = []
    for i in range(values.size):
        chunk = raw[i * size:(i + 1) * size]
        elements.append(
            (int.from_bytes(chunk, sys.byteorder), struct.unpack(code, chunk)[0])
        )
    return elements


def _from_bits(bits: int, dtype: np.dtype) -> Element:
    size = dtype.itemsize
    chunk = bits.to_bytes(size, sys.byteorder)
    return bits, struct.unpack("=" + _CODES[dtype.name], chunk)[0]


# -- Definition 3.1 -------------------------------------------------------------


def unchanged_fraction(pair: SnapshotPair) -> float:
    """Fraction of written elements whose bits the API left unchanged."""
    before = np.asarray(pair.before).ravel()
    after = np.asarray(pair.after).ravel()
    if before.size != after.size:
        raise ValueError(f"snapshot sizes differ ({before.size} vs {after.size})")
    if before.dtype != after.dtype:
        raise ValueError(f"snapshot dtypes differ ({before.dtype} vs {after.dtype})")
    old = [bits for bits, _ in _elements(before)]
    new = [bits for bits, _ in _elements(after)]
    if pair.written_indices is None:
        written = list(range(len(old)))
    else:
        written = [int(i) for i in np.asarray(pair.written_indices).ravel()]
    if not written:
        return 0.0
    same = sum(1 for i in written if old[i] == new[i])
    return same / len(written)


# -- Definitions 3.3-3.5 ----------------------------------------------------------


def _frequent(elements: List[Element], config: PatternConfig) -> Optional[Metrics]:
    counts: Dict[object, int] = {}
    #: the spellings seen of each class: both signs of zero, or one value.
    spellings: Dict[object, list] = {}
    for _, number in elements:
        key = _value_class(number)
        counts[key] = counts.get(key, 0) + 1
        seen = spellings.setdefault(key, [])
        if not any(_identical(number, other) for other in seen):
            seen.append(number)
    top = max(counts.values())
    share = top / len(elements)
    if share < config.frequent_threshold:
        return None
    options = [x for key, c in counts.items() if c == top for x in spellings[key]]
    return {
        "top_value": AnyOf(tuple(options)),
        "share": share,
        "distinct_values": len(counts),
    }


def _identical(a, b) -> bool:
    """Same value and, for zeros, same sign; any two NaNs are identical."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1, a) == math.copysign(1, b)


def _single_value(elements: List[Element], config: PatternConfig) -> Optional[Metrics]:
    first_bits, first = elements[0]
    numerically = all(number == first for _, number in elements)
    bitwise = all(bits == first_bits for bits, _ in elements)
    if not (numerically or bitwise):
        return None
    return {"value": first, "accesses": len(elements)}


def _single_zero(elements: List[Element], config: PatternConfig) -> Optional[Metrics]:
    if any(number != 0 for _, number in elements):
        return None
    return {"accesses": len(elements)}


_VALUE_PATTERNS = (
    (Pattern.FREQUENT_VALUES, _frequent),
    (Pattern.SINGLE_VALUE, _single_value),
    (Pattern.SINGLE_ZERO, _single_zero),
)


def _value_patterns(
    elements: List[Element], config: PatternConfig
) -> List[Tuple[Pattern, Metrics]]:
    found = []
    for pattern, check in _VALUE_PATTERNS:
        metrics = check(elements, config)
        if metrics is not None:
            found.append((pattern, metrics))
    return found


# -- Definition 3.6 -----------------------------------------------------------------


def _narrowest_integer(lo: int, hi: int, signed: bool) -> Optional[DType]:
    for dtype, low, high in (_SIGNED if signed or lo < 0 else _UNSIGNED):
        if low <= lo and hi <= high:
            return dtype
    return None


def _round_trips(number: float, code: str) -> bool:
    if number != number:
        return True
    try:
        back = struct.unpack(code, struct.pack(code, number))[0]
    except OverflowError:
        return False
    return back == number


def _minimal_type(numbers: list, declared: DType) -> DType:
    if not declared.is_float:
        narrow = _narrowest_integer(
            int(min(numbers)), int(max(numbers)), declared.is_signed
        )
        return narrow if narrow.bits < declared.bits else declared
    if all(math.isfinite(x) for x in numbers) and all(
        x == math.trunc(x) for x in numbers
    ):
        lo, hi = int(min(numbers)), int(max(numbers))
        narrow = _narrowest_integer(lo, hi, lo < 0) or declared
        if narrow.bits < declared.bits:
            return narrow
    for candidate, code in ((DType.FLOAT16, "e"), (DType.FLOAT32, "f")):
        if candidate.bits < declared.bits and all(
            _round_trips(x, code) for x in numbers
        ):
            return candidate
    return declared


def _heavy_type(
    elements: List[Element], declared: DType, config: PatternConfig
) -> Optional[Metrics]:
    numbers = [number for _, number in elements]
    narrow = _minimal_type(numbers, declared)
    codebook = None
    if narrow is declared and declared.is_float:
        distinct = len({_value_class(x) for x in numbers})
        if distinct <= _CODEBOOK:
            codebook, narrow = distinct, DType.UINT8
    saving = declared.bits - narrow.bits
    if saving < config.heavy_type_min_saving_bits:
        return None
    metrics: Metrics = {
        "declared": declared.name,
        "minimal": narrow.name,
        "saving_bits": saving,
    }
    if codebook is not None:
        metrics["codebook_size"] = codebook
    return metrics


# -- Definition 3.7 -------------------------------------------------------------------


def _median(xs: List[float]) -> float:
    """numpy's median: NaN if any NaN, else the middle (sum from +0.0)."""
    if any(x != x for x in xs):
        return math.nan
    ordered = sorted(xs)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[mid]
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2


def _structured(
    elements: List[Element], addresses: np.ndarray, itemsize: int,
    config: PatternConfig,
) -> Optional[Metrics]:
    ys = [float(number) for _, number in elements]
    addrs = [float(a) for a in np.asarray(addresses).ravel().tolist()]
    if len(addrs) != len(ys):
        return None
    if not all(math.isfinite(y) for y in ys):
        return None
    base = min(addrs)
    first_value: Dict[float, float] = {}
    for address, y in zip(addrs, ys):
        first_value.setdefault((address - base) / max(itemsize, 1), y)
    xs = sorted(first_value)
    ys = [first_value[x] for x in xs]
    if len(xs) < config.structured_min_distinct:
        return None
    if len({_value_class(y) for y in ys}) < config.structured_min_distinct:
        return None
    if len(xs) < 2:
        return None
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    slope = _median(slopes)
    intercept = _median([y - slope * x for x, y in zip(xs, ys)])
    scale = max(max(abs(y) for y in ys), 1.0)
    inliers = sum(
        1 for x, y in zip(xs, ys)
        if abs(slope * x + intercept - y) / scale <= config.structured_tolerance
    )
    if slope == 0.0:
        return None
    inlier_fraction = inliers / len(xs)
    if inlier_fraction < 1.0 - config.structured_outlier_fraction:
        return None
    return {"slope": slope, "intercept": intercept, "inlier_fraction": inlier_fraction}


# -- Definition 3.8 -------------------------------------------------------------------


def _truncate(elements: List[Element], dtype: np.dtype, keep_bits: int) -> List[Element]:
    drop = max(0, _MANTISSA[dtype.name] - keep_bits)
    mask = ~((1 << drop) - 1)
    return [_from_bits(bits & mask, dtype) for bits, _ in elements]


def _approximate(
    elements: List[Element], dtype: np.dtype, config: PatternConfig
) -> List[Metrics]:
    keep = config.approximate_mantissa_bits
    exact = {pattern for pattern, _ in _value_patterns(elements, config)}
    found = []
    for pattern, metrics in _value_patterns(_truncate(elements, dtype, keep), config):
        if pattern not in exact:
            found.append(
                {"underlying": pattern.value, "mantissa_bits": keep, **metrics}
            )
    return found


# -- the whole view -------------------------------------------------------------------


def analyze_view(
    view: ObjectAccessView, config: PatternConfig = PatternConfig()
) -> List[Tuple[Pattern, Metrics]]:
    """``(pattern, metrics)`` of every fine-grained hit on one view.

    In :meth:`PatternEngine.analyze_view` order: frequent values, single
    value, single zero, heavy type, structured values, then approximate
    values (one per underlying pattern, in the same order).
    """
    values = np.asarray(view.values)
    elements = _elements(values)
    if len(elements) < config.min_accesses:
        return []
    found = _value_patterns(elements, config)
    heavy = _heavy_type(elements, view.dtype, config)
    if heavy is not None:
        found.append((Pattern.HEAVY_TYPE, heavy))
    structured = _structured(elements, view.addresses, view.itemsize, config)
    if structured is not None:
        found.append((Pattern.STRUCTURED_VALUES, structured))
    if values.dtype.name in _MANTISSA:
        for metrics in _approximate(elements, values.dtype, config):
            found.append((Pattern.APPROXIMATE_VALUES, metrics))
    return found
