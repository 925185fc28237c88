"""Copies whose element counts disagree fail with a typed error.

A host<->device copy moves ``nbytes`` worth of destination elements.
When the host array or the source holds fewer elements or bytes than
that, the copy raises :class:`InvalidValueError` before it writes any
element, instead of a raw numpy broadcast error or a broadcast that
writes one host value into several device elements.  A count outside
the destination still raises :class:`InvalidAddressError`.
"""

import numpy as np
import pytest

from repro.errors import InvalidAddressError, InvalidValueError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import (
    HostArray,
    MemcpyEvent,
    MemcpyKind,
    MemsetEvent,
    apply_memcpy,
    apply_memset,
)


def test_h2d_needing_more_host_elements_than_exist(rt):
    dst = rt.malloc(100, DType.FLOAT32)
    with pytest.raises(InvalidValueError, match="20 host elements"):
        rt.memcpy_h2d(dst, HostArray(np.ones(10, np.float64), "h"))
    assert not dst.read_all().any()


def test_h2d_of_one_wide_element_does_not_broadcast(rt):
    dst = rt.malloc(64, DType.FLOAT32)
    with pytest.raises(InvalidValueError):
        rt.memcpy_h2d(dst, HostArray(np.array([7.0]), "h"))
    assert not dst.read_all().any()


def test_d2h_needing_more_host_elements_than_exist(rt):
    src = rt.upload(np.ones(64, np.float32), "src")
    host = HostArray(np.zeros(10, np.float64), "h")
    with pytest.raises(InvalidValueError, match="20 host elements"):
        rt.memcpy_d2h(host, src)
    assert not host.data.any()


def test_a_widening_cast_copies_what_the_host_bytes_cover(rt):
    dst = rt.malloc(64, DType.FLOAT64)
    rt.memcpy_h2d(dst, HostArray(np.arange(10, dtype=np.float32), "h"))
    values = dst.read_all()
    assert np.array_equal(values[:5], np.arange(5))
    assert not values[5:].any()


def _copy(kind, nbytes, dst=None, src=None, host=None):
    return MemcpyEvent(
        seq=0,
        call_path=None,
        kind=kind,
        nbytes=nbytes,
        dst_alloc=dst,
        src_alloc=src,
        host_array=host,
    )


def test_d2d_needing_more_source_bytes_than_exist(rt):
    src = rt.malloc(32, DType.FLOAT64)
    dst = rt.malloc(64, DType.FLOAT32)
    # 252 bytes: 31 whole source elements (248 bytes) for 63 destination ones.
    with pytest.raises(InvalidValueError, match="252 source bytes"):
        apply_memcpy(_copy(MemcpyKind.DEVICE_TO_DEVICE, 252, dst, src))
    assert not dst.read_all().any()


@pytest.mark.parametrize("nbytes", [-4, 64 * 4 + 4, 2.5])
def test_a_byte_count_outside_the_destination(rt, nbytes):
    dst = rt.malloc(64, DType.FLOAT32)
    host = HostArray(np.ones(1024, np.float32), "h")
    with pytest.raises(InvalidAddressError):
        apply_memcpy(_copy(MemcpyKind.HOST_TO_DEVICE, nbytes, dst, host=host))
    with pytest.raises(InvalidAddressError):
        apply_memset(
            MemsetEvent(seq=0, call_path=None, alloc=dst, byte_value=1, nbytes=nbytes)
        )
    assert not dst.read_all().any()


def test_memset_fills_the_byte_prefix(rt):
    buf = rt.malloc(64, DType.UINT16)
    rt.memset(buf, 0xAB, nbytes=10)
    values = buf.read_all()
    assert (values[:5] == 0xABAB).all()
    assert not values[5:].any()
