"""Device scalar types.

The fine-grained analyzer needs to interpret raw bits with an *access
type* (value type, size, count — paper Section 5.1).  This module is the
shared vocabulary: each :class:`DType` knows its width, signedness, and
numpy equivalent, and the heavy-type detector uses the orderings defined
here to find the narrowest type that can represent a set of values.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np


class DType(enum.Enum):
    """A device scalar type, mirroring CUDA's fundamental types."""

    INT8 = "int8"
    UINT8 = "uint8"
    INT16 = "int16"
    UINT16 = "uint16"
    INT32 = "int32"
    UINT32 = "uint32"
    INT64 = "int64"
    UINT64 = "uint64"
    FLOAT16 = "float16"
    FLOAT32 = "float32"
    FLOAT64 = "float64"

    def __init__(self, value: str) -> None:
        # Hot-path caches: ``np.dtype`` construction is surprisingly
        # costly, and so is a dict lookup keyed by an enum member (its
        # ``__hash__`` is Python code).  These properties are hit once
        # per access record on decode and once per object per launch.
        self._np_dtype = np.dtype(value)
        self._itemsize = self._np_dtype.itemsize

    @property
    def np_dtype(self) -> np.dtype:
        """The equivalent numpy dtype."""
        return self._np_dtype

    @property
    def itemsize(self) -> int:
        """Width in bytes."""
        return self._itemsize

    @property
    def bits(self) -> int:
        """Width in bits."""
        return self.itemsize * 8

    @property
    def is_float(self) -> bool:
        """Whether the type is an IEEE floating type."""
        return self in (DType.FLOAT16, DType.FLOAT32, DType.FLOAT64)

    @property
    def is_signed(self) -> bool:
        """Whether the type can represent negative values."""
        return self.is_float or self in (
            DType.INT8,
            DType.INT16,
            DType.INT32,
            DType.INT64,
        )

    @property
    def integer_range(self) -> Tuple[int, int]:
        """Inclusive (min, max) representable range for integer types."""
        if self.is_float:
            raise ValueError(f"{self.name} is not an integer type")
        info = np.iinfo(self.np_dtype)
        return int(info.min), int(info.max)

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "DType":
        """Map a numpy dtype to the corresponding :class:`DType`."""
        name = np.dtype(dtype).name
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unsupported numpy dtype: {dtype!r}")


#: Integer narrowing ladders used by the heavy-type detector, narrowest
#: first.  The detector walks the appropriate ladder and returns the first
#: type whose range contains all observed values.
SIGNED_INT_LADDER = (DType.INT8, DType.INT16, DType.INT32, DType.INT64)
UNSIGNED_INT_LADDER = (DType.UINT8, DType.UINT16, DType.UINT32, DType.UINT64)
FLOAT_LADDER = (DType.FLOAT16, DType.FLOAT32, DType.FLOAT64)


_UNSIGNED_BY_ITEMSIZE = {1: "uint8", 2: "uint16", 4: "uint32", 8: "uint64"}


def unsigned_of_width(itemsize: int) -> np.dtype:
    """The unsigned numpy dtype of a given byte width (raw-bit carrier).

    Untyped access records carry values as raw bit patterns in the
    unsigned integer of the access width; the offline analyzer
    reinterprets them once slicing recovers the access type.
    """
    try:
        return np.dtype(_UNSIGNED_BY_ITEMSIZE[itemsize])
    except KeyError:
        raise ValueError(f"no unsigned carrier of width {itemsize} bytes") from None


def minimal_integer_type(lo: int, hi: int, signed: bool) -> DType:
    """Return the narrowest integer :class:`DType` covering ``[lo, hi]``.

    Raises ``ValueError`` when no 64-bit type covers the range.
    """
    ladder = SIGNED_INT_LADDER if signed or lo < 0 else UNSIGNED_INT_LADDER
    for dtype in ladder:
        tmin, tmax = dtype.integer_range
        if tmin <= lo and hi <= tmax:
            return dtype
    raise ValueError(f"no integer type covers [{lo}, {hi}]")
