"""The snapshot store rehashes only the chunks whose bytes changed.

The oracle is the full rehash: after any sequence of whole-object and
planned refreshes, the store's chunk digests must equal
``chunk_digests`` of its mirror, and its object digest the mirror's
``snapshot_digest``.  The counting tests pin the saving itself: a
rewrite with identical bytes rehashes nothing, and neither does the
host side of a repeated H2D upload.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.utils.hashing as hashing
from repro.analysis.online import OnlineAnalyzer
from repro.collector.collector import DataCollector
from repro.collector.objects import DataObject
from repro.collector.snapshots import SnapshotStore
from repro.gpu.dtypes import DType
from repro.gpu.runtime import GpuRuntime, HostArray
from repro.intervals.copyplan import CopyPlan, CopyStrategy
from repro.utils.hashing import DIGEST_CHUNK_BYTES, chunk_digests, snapshot_digest

CHUNK = DIGEST_CHUNK_BYTES
BASE = 0x1000


class _Buffer:
    """Device memory of one object, read the way the store reads it."""

    def __init__(self, data: np.ndarray):
        self.data = data
        self.nelems = data.size

    def read_all(self) -> np.ndarray:
        return self.data.copy()

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        return self.data[max(lo, 0) : min(hi, self.nelems)].copy()


def _tracked(nelems: int, dtype: DType, seed: int = 0):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, nelems * dtype.itemsize, dtype=np.uint8)
    buffer = _Buffer(raw.view(dtype.np_dtype))
    obj = DataObject(
        alloc_id=1,
        label="obj",
        address=BASE,
        size=buffer.data.nbytes,
        dtype=dtype,
        alloc_context=None,
        handle=buffer,
    )
    store = SnapshotStore()
    store.track(obj)
    return store, obj, buffer


def _plan(byte_ranges):
    ranges = tuple((BASE + lo, BASE + hi) for lo, hi in byte_ranges)
    nbytes = sum(hi - lo for lo, hi in byte_ranges)
    return CopyPlan(
        strategy=CopyStrategy.SEGMENT,
        ranges=ranges,
        bytes_transferred=nbytes,
        invocations=len(ranges),
        cost_bytes=nbytes,
    )


def _assert_matches_full_rehash(store, obj):
    mirror = store.snapshot(obj.alloc_id)
    assert store._chunks[obj.alloc_id] == chunk_digests(mirror)
    assert store.digest(obj.alloc_id) == snapshot_digest(mirror)


# -- the full rehash as the oracle -------------------------------------------

#: Element counts: empty, within one chunk, and one element either side
#: of a multiple of the chunk size (in bytes for UINT8).
_SIZES = st.one_of(
    st.sampled_from([0, 1, 100, CHUNK - 1]),
    st.builds(
        lambda chunks, delta: chunks * CHUNK + delta,
        st.integers(1, 2),
        st.sampled_from([-1, 0, 1]),
    ),
)
_REWRITES = ("identical", "one byte", "straddle")
_REFRESHES = ("full", "plan", "plan without before")


def _rewrite(buffer: _Buffer, kind: str, data) -> None:
    raw = buffer.data.view(np.uint8)
    if raw.size == 0 or kind == "identical":
        buffer.data[:] = buffer.data.copy()
        return
    boundaries = range(CHUNK, raw.size, CHUNK)
    if kind == "straddle" and len(boundaries):
        edge = data.draw(st.sampled_from(boundaries))
        lo = max(0, edge - data.draw(st.integers(1, 8)))
        hi = min(raw.size, edge + data.draw(st.integers(1, 8)))
    else:
        lo = data.draw(st.integers(0, raw.size - 1))
        hi = lo + 1
    raw[lo:hi] ^= 0xFF


@settings(max_examples=120, deadline=None)
@given(
    nelems=_SIZES,
    dtype=st.sampled_from([DType.UINT8, DType.FLOAT32]),
    steps=st.lists(
        st.tuples(st.sampled_from(_REWRITES), st.sampled_from(_REFRESHES)),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_store_chunks_equal_a_full_rehash_after_every_refresh(
    nelems, dtype, steps, data
):
    store, obj, buffer = _tracked(nelems, dtype)
    nbytes = buffer.data.nbytes
    _assert_matches_full_rehash(store, obj)
    for rewrite, refresh in steps:
        _rewrite(buffer, rewrite, data)
        if refresh == "full":
            store.refresh_full(obj)
            assert np.array_equal(
                store.snapshot(obj.alloc_id).view(np.uint8),
                buffer.data.view(np.uint8),
            )
        else:
            expected = store.snapshot(obj.alloc_id).copy()
            ranges = data.draw(
                st.lists(
                    st.tuples(st.integers(0, nbytes), st.integers(0, nbytes)),
                    max_size=3,
                )
            )
            ranges = [(min(a, b), max(a, b)) for a, b in ranges]
            store.refresh_plan(
                obj, _plan(ranges), want_before=(refresh == "plan")
            )
            itemsize = dtype.itemsize
            for lo, hi in ranges:
                lo, hi = lo // itemsize, -(-hi // itemsize)
                expected[lo:hi] = buffer.data[lo:hi]
            assert np.array_equal(
                store.snapshot(obj.alloc_id).view(np.uint8),
                expected.view(np.uint8),
            )
        _assert_matches_full_rehash(store, obj)


# -- what the comparison saves -----------------------------------------------


class _CountingHashlib:
    """Stands in for ``hashlib`` inside :mod:`repro.utils.hashing`."""

    def __init__(self):
        self.calls = 0

    def sha256(self, data=b""):
        self.calls += 1
        return hashlib.sha256(data)


@pytest.fixture
def hashes(monkeypatch):
    counter = _CountingHashlib()
    monkeypatch.setattr(hashing, "hashlib", counter)
    return counter


def test_an_identical_rewrite_rehashes_no_chunk(hashes):
    store, obj, buffer = _tracked(3 * CHUNK + 5, DType.UINT8)
    store.digest(obj.alloc_id)
    hashes.calls = 0
    store.refresh_full(obj)
    store.refresh_plan(obj, _plan([(0, buffer.data.nbytes)]))
    store.refresh_plan(obj, _plan([(10, CHUNK + 10)]), want_before=False)
    store.digest(obj.alloc_id)
    assert hashes.calls == 0


def test_a_changed_byte_rehashes_only_its_chunk(hashes):
    store, obj, buffer = _tracked(3 * CHUNK + 5, DType.UINT8)
    hashes.calls = 0
    buffer.data[2 * CHUNK + 1] ^= 1
    store.refresh_full(obj)
    assert hashes.calls == 1
    _assert_matches_full_rehash(store, obj)


def test_a_repeated_upload_hashes_nothing(hashes):
    rt = GpuRuntime()
    analyzer = OnlineAnalyzer()
    DataCollector(analyzer).attach(rt)
    # Three and a bit chunks, a whole number of 256-byte granules, so
    # the allocation holds exactly the host bytes.
    host = HostArray(np.arange(3 * CHUNK // 4 + 64, dtype=np.float32), "weights")
    dst = rt.malloc(host.data.size, DType.FLOAT32, "w")
    rt.memcpy_h2d(dst, host)
    hashes.calls = 0
    rt.memcpy_h2d(dst, host)
    assert hashes.calls == 0
    assert analyzer._digests["host:weights"] == snapshot_digest(host.data)
    assert analyzer._digests["host:weights"] == analyzer._digests[
        f"dev:{dst.alloc_id}"
    ]
