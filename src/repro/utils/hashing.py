"""Snapshot hashing used by the duplicate-values detector.

The paper (Section 5.1) groups data objects by the SHA256 digest of their
value snapshots: objects sharing a digest after some GPU API are reported
as *duplicate values*.

Digests are *chunked*: a snapshot's raw bytes are split into fixed-size
chunks, each chunk hashed separately, and the chunk digests combined.
Arrays not exceeding one chunk keep the plain SHA256 of their bytes.
The chunking exists so the snapshot store can maintain digests
incrementally: a refresh compares the new bytes with the old ones
chunk by chunk (:func:`changed_chunks`) and rehashes only the chunks
that differ, since a chunk whose bytes are equal has an equal SHA256.
Standalone callers (host arrays, the coarse detector) compute the
identical digest by hashing every chunk.  Every consumer must go
through this module so device and host digests stay comparable.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: Chunk granularity of incremental snapshot hashing (bytes).
DIGEST_CHUNK_BYTES = 64 * 1024


def _raw_view(snapshot: np.ndarray) -> memoryview:
    data = np.ascontiguousarray(snapshot)
    return memoryview(data).cast("B")


def changed_chunks(
    old: np.ndarray, new: np.ndarray, offset: int = 0
) -> Iterator[int]:
    """Yield, ascending, the chunks in which ``new``'s bytes differ from
    ``old``'s.

    ``old`` and ``new`` hold the same number of bytes, which sit at byte
    ``offset`` of a snapshot; the yielded indices are that snapshot's
    chunks.  The bytes are compared one chunk at a time, so for
    contiguous arrays the comparison's scratch never exceeds two
    chunks, and a caller that only asks whether anything differs stops
    at the first difference.
    """
    a = _raw_view(old)
    b = _raw_view(new)
    if a.nbytes != b.nbytes:
        raise ValueError(f"byte counts differ ({a.nbytes} vs {b.nbytes})")
    pos = 0
    while pos < a.nbytes:
        index = (offset + pos) // DIGEST_CHUNK_BYTES
        end = min(a.nbytes, (index + 1) * DIGEST_CHUNK_BYTES - offset)
        # bytes() copies the slices and compares them with memcmp; a
        # memoryview comparison would unpack them byte by byte.
        if bytes(a[pos:end]) != bytes(b[pos:end]):
            yield index
        pos = end


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold exactly the same raw bytes."""
    return a.nbytes == b.nbytes and next(changed_chunks(a, b), None) is None


def chunk_digests(snapshot: np.ndarray) -> List[str]:
    """Per-chunk SHA256 hex digests of a snapshot's raw bytes.

    The final chunk may be short; an empty snapshot yields one digest
    (of zero bytes) so every object has a well-defined digest.
    """
    raw = _raw_view(snapshot)
    nbytes = raw.nbytes
    if nbytes == 0:
        return [hashlib.sha256(b"").hexdigest()]
    return [
        hashlib.sha256(raw[offset : offset + DIGEST_CHUNK_BYTES]).hexdigest()
        for offset in range(0, nbytes, DIGEST_CHUNK_BYTES)
    ]


def refresh_chunk_digests(
    snapshot: np.ndarray,
    chunks: List[str],
    byte_ranges: Iterable[Tuple[int, int]],
) -> List[str]:
    """Rehash, in place, only the chunks overlapping ``byte_ranges``.

    ``chunks`` must be the chunk digests of the snapshot *before* the
    bytes in ``byte_ranges`` changed; after the call it matches
    :func:`chunk_digests` of the current contents.  Ranges are
    ``(lo, hi)`` byte offsets into the snapshot, clamped to its size.
    """
    raw = _raw_view(snapshot)
    nbytes = raw.nbytes
    nchunks = len(chunks)
    dirty = set()
    for lo, hi in byte_ranges:
        lo = max(0, int(lo))
        hi = min(nbytes, int(hi))
        if hi <= lo:
            continue
        first = lo // DIGEST_CHUNK_BYTES
        last = min((hi - 1) // DIGEST_CHUNK_BYTES, nchunks - 1)
        dirty.update(range(first, last + 1))
    for index in dirty:
        offset = index * DIGEST_CHUNK_BYTES
        chunks[index] = hashlib.sha256(
            raw[offset : offset + DIGEST_CHUNK_BYTES]
        ).hexdigest()
    return chunks


def combine_digests(chunks: Sequence[str]) -> str:
    """Fold chunk digests into one object digest.

    A single chunk passes through unchanged, so small snapshots hash
    exactly as ``sha256(raw bytes)``.
    """
    if len(chunks) == 1:
        return chunks[0]
    joined = hashlib.sha256()
    for chunk in chunks:
        joined.update(bytes.fromhex(chunk))
    return joined.hexdigest()


def snapshot_digest(snapshot: np.ndarray) -> str:
    """Return the (chunk-combined) SHA256 hex digest of a snapshot.

    Two objects only hash equal when they are bitwise identical —
    exactly the paper's criterion for the duplicate-values pattern.

    Parameters
    ----------
    snapshot:
        Any numpy array; it is viewed as raw bytes (C-contiguous copy is
        made if needed).
    """
    return combine_digests(chunk_digests(snapshot))


def bytes_digest(data: bytes) -> str:
    """Return the SHA256 hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()
