"""The ``.vetrace`` on-disk container.

A trace is one file::

    magic   b"VETRACE\\0"                      (8 bytes)
    u32     format version                     (little-endian)
    u64     footer offset                      (patched on close; 0 while
                                                the trace is being written)
    u32     header length, header JSON
    frame*  the runtime event stream
    footer  u64 length, footer JSON            (kernel table, event count)

Each frame is one runtime API event::

    u32     event kind (MALLOC/FREE/MEMCPY/MEMSET/LAUNCH)
    u32     meta length
    u64     payload length (as stored on disk)
    meta    JSON object; its ``"__arrays__"`` key maps array names to
            ``{dtype, shape, offset, nbytes}`` descriptors
    payload concatenated raw (C-order) array bytes — never pickled

Format v2 keeps the container identical but makes the payload compact:

- a frame whose payload shrinks under zlib is stored compressed, with
  ``meta["__codec__"] = {"c": "zlib", "n": <raw length>}`` recording
  the pre-compression length (descriptor offsets address the *raw*
  payload);
- arrays registered under a *delta key* (the recorder keys post-launch
  snapshots by allocation identity) are XOR-encoded against the
  previous payload written under the same key when the lengths match;
  the descriptor gains ``"dkey"`` (the key) and ``"delta": true`` when
  the XOR was applied.  Repeated snapshots of a mostly-unchanged
  allocation therefore become runs of zeros that zlib collapses.

Format v3 keeps the v2 container and payload encoding and adds the
originating **device** to every frame: the common event meta gains a
``"device"`` key and allocation descriptors gain ``"device"``.  v1/v2
traces lack the keys and decode as device 0.

Numpy arrays still round-trip bit-exactly, the metadata stays
greppable JSON, and a reader can skip any frame without parsing its
payload.  Versioning rules live in ``docs/trace.md``: the version is
bumped whenever a frame's meaning changes, and readers reject any
version outside :data:`SUPPORTED_VERSIONS` (no silent best-effort
parsing of traces from an unknown format generation).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TraceError

MAGIC = b"VETRACE\0"
#: Default (current) format version written by :class:`TraceWriter`.
VERSION = 3
#: Versions this reader generation can decode.
SUPPORTED_VERSIONS = frozenset({1, 2, 3})

#: Event kinds, one per intercepted GPU API.
EVENT_MALLOC = 1
EVENT_FREE = 2
EVENT_MEMCPY = 3
EVENT_MEMSET = 4
EVENT_LAUNCH = 5

EVENT_NAMES = {
    EVENT_MALLOC: "cudaMalloc",
    EVENT_FREE: "cudaFree",
    EVENT_MEMCPY: "cudaMemcpy",
    EVENT_MEMSET: "cudaMemset",
    EVENT_LAUNCH: "cudaLaunchKernel",
}

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: File offset of the u64 footer-offset field (magic + version).
_FOOTER_OFFSET_POS = len(MAGIC) + _U32.size

ArrayDict = Dict[str, np.ndarray]


def _dump_json(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def _load_json(raw: bytes, what: str, last_good_offset: int) -> dict:
    """Parse one JSON object block; damage is a :class:`TraceError`."""
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise TraceError(
            f"corrupt {what}: {exc}", last_good_offset=last_good_offset
        ) from None
    if not isinstance(obj, dict):
        raise TraceError(
            f"corrupt {what}: expected a JSON object, got "
            f"{type(obj).__name__}",
            last_good_offset=last_good_offset,
        )
    return obj


def _inflate(payload: bytes, codec: dict) -> bytes:
    """Undo the v2 zlib codec, never inflating past the recorded length."""
    if codec.get("c") != "zlib":
        raise ValueError(f"unknown payload codec {codec.get('c')!r}")
    nbytes = codec.get("n")
    if type(nbytes) is not int or nbytes < 0:
        raise ValueError(
            f"payload codec needs a non-negative int raw length, got {nbytes!r}"
        )
    inflater = zlib.decompressobj()
    raw = inflater.decompress(payload, nbytes + 1)
    if len(raw) != nbytes or not inflater.eof:
        raise ValueError(
            "decompressed payload length does not match the recorded raw "
            "length"
        )
    return raw


class TraceWriter:
    """Streams events into a ``.vetrace`` file.

    The footer offset is written as 0 up front and patched by
    :meth:`close`, so an unclosed (crashed) trace is detectably
    truncated rather than silently short.
    """

    def __init__(
        self,
        path: str,
        header: Optional[dict] = None,
        version: int = VERSION,
    ):
        if version not in SUPPORTED_VERSIONS:
            raise TraceError(
                f"cannot write trace format version {version}; supported "
                f"versions are {sorted(SUPPORTED_VERSIONS)}"
            )
        self.path = path
        self.version = version
        self._file = open(path, "wb")
        self._closed = False
        self.torn = False
        self.events_written = 0
        self._final_size: Optional[int] = None
        #: delta key -> raw bytes of the last payload written under it
        #: (v2 only; see :meth:`write_event`).
        self._delta_state: Dict[str, bytes] = {}
        self._file.write(MAGIC)
        self._file.write(_U32.pack(version))
        self._file.write(_U64.pack(0))
        header_bytes = _dump_json(header or {})
        self._file.write(_U32.pack(len(header_bytes)))
        self._file.write(header_bytes)

    def write_event(
        self,
        kind: int,
        meta: dict,
        arrays: ArrayDict,
        delta_keys: Optional[Dict[str, str]] = None,
    ) -> None:
        """Append one event frame; ``arrays`` land raw in the payload.

        ``delta_keys`` maps array names to stable string keys (e.g. an
        allocation identity).  Under format v2, a keyed array whose byte
        length matches the previous payload written under the same key
        is stored as the XOR against that payload; readers reverse the
        XOR statefully.  v1 writers ignore ``delta_keys`` entirely.
        """
        if self.torn:
            # A torn writer models a dead recording process: later
            # events vanish, exactly like writes after a crash.
            return
        if self._closed:
            raise TraceError(f"trace {self.path!r} is already closed")
        use_v2 = self.version >= 2
        descriptors = {}
        chunks = []
        offset = 0
        for name, array in arrays.items():
            raw = np.ascontiguousarray(array)
            nbytes = int(raw.nbytes)
            desc = {
                "dtype": str(raw.dtype),
                "shape": list(raw.shape),
                "offset": offset,
                "nbytes": nbytes,
            }
            raw_bytes = raw.tobytes()
            key = delta_keys.get(name) if (use_v2 and delta_keys) else None
            if key is not None:
                desc["dkey"] = key
                previous = self._delta_state.get(key)
                if previous is not None and len(previous) == nbytes:
                    raw_bytes = np.bitwise_xor(
                        np.frombuffer(raw.tobytes(), dtype=np.uint8),
                        np.frombuffer(previous, dtype=np.uint8),
                    ).tobytes()
                    desc["delta"] = True
                self._delta_state[key] = raw.tobytes()
            descriptors[name] = desc
            chunks.append(raw_bytes)
            offset += nbytes
        meta = dict(meta)
        meta["__arrays__"] = descriptors
        payload = b"".join(chunks)
        if use_v2 and payload:
            compressed = zlib.compress(payload, 1)
            if len(compressed) < len(payload):
                meta["__codec__"] = {"c": "zlib", "n": len(payload)}
                payload = compressed
        meta_bytes = _dump_json(meta)
        self._file.write(_U32.pack(kind))
        self._file.write(_U32.pack(len(meta_bytes)))
        self._file.write(_U64.pack(len(payload)))
        self._file.write(meta_bytes)
        self._file.write(payload)
        self.events_written += 1

    def release_delta(self, key: str) -> None:
        """Drop the delta base held for ``key`` (e.g. after a free)."""
        self._delta_state.pop(key, None)

    @property
    def bytes_written(self) -> int:
        """Bytes written to the file so far.

        A torn writer reports 0 (the recording is dead); a closed
        writer reports the final file size, so telemetry sampled after
        :meth:`close` still sees the trace it produced.
        """
        if self.torn:
            return 0
        if self._closed:
            return self._final_size or 0
        return self._file.tell()

    def tear(self) -> None:
        """Simulate the writing process dying mid-frame.

        A partial frame header (a plausible kind, then nothing) is left
        on disk, the footer offset is never patched, and the writer goes
        dead: subsequent :meth:`write_event`/:meth:`close` calls are
        no-ops.  A plain :class:`TraceReader` refuses the result; a
        salvaging reader recovers every frame before the tear.
        """
        if self._closed or self.torn:
            return
        self._file.write(_U32.pack(EVENT_LAUNCH))
        self._file.write(b"\x7f\x03")
        self._file.close()
        self.torn = True

    def close(self, footer: Optional[dict] = None) -> int:
        """Write the footer, patch its offset, and close the file.

        Returns the final file size in bytes.
        """
        if self.torn:
            return 0
        if self._closed:
            raise TraceError(f"trace {self.path!r} is already closed")
        footer = dict(footer or {})
        footer.setdefault("events", self.events_written)
        footer_offset = self._file.tell()
        footer_bytes = _dump_json(footer)
        self._file.write(_U64.pack(len(footer_bytes)))
        self._file.write(footer_bytes)
        size = self._file.tell()
        self._file.seek(_FOOTER_OFFSET_POS)
        self._file.write(_U64.pack(footer_offset))
        self._file.close()
        self._closed = True
        self._final_size = size
        return size

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.close()


class TraceReader:
    """Reads a ``.vetrace`` file: header/footer eagerly, events lazily.

    With ``salvage=True`` a truncated recording (crashed writer: footer
    offset still 0, possibly a partial final frame) is accepted: the
    reader walks the frame stream to the last complete frame and
    replays exactly that prefix.  :attr:`truncated` reports whether
    salvage engaged; :attr:`salvaged_bytes`/:attr:`salvaged_events`
    quantify what survived.  The kernel-table footer is lost with the
    tail, so ``footer["kernels"]`` is empty on a salvaged trace.
    """

    def __init__(self, path: str, salvage: bool = False):
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise TraceError(f"cannot open trace {path!r}: {exc}") from exc
        magic = self._file.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceError(f"{path!r} is not a ValueExpert trace")
        self.version = _U32.unpack(self._read_exact(_U32.size))[0]
        if self.version not in SUPPORTED_VERSIONS:
            raise TraceError(
                f"{path!r} has trace format version {self.version}; "
                f"this reader understands versions "
                f"{sorted(SUPPORTED_VERSIONS)} only"
            )
        self._footer_offset = _U64.unpack(self._read_exact(_U64.size))[0]
        self.truncated = False
        self.salvaged_bytes = 0
        self.salvaged_events = 0
        self.header: dict = self._read_json_block(_U32, "header")
        self._events_start = self._file.tell()
        if self._footer_offset == 0:
            last_good, nevents = self._scan_frames()
            if not salvage:
                raise TraceError(
                    f"{path!r} was never closed (truncated recording)",
                    last_good_offset=last_good,
                )
            self.truncated = True
            self._footer_offset = last_good
            self.footer: dict = {
                "events": nevents,
                "kernels": {},
                "salvaged": True,
            }
            self.salvaged_bytes = last_good - self._events_start
            self.salvaged_events = nevents
            self._file.seek(self._events_start)
            return
        footer_end = self.nbytes - _U64.size
        if not self._events_start <= self._footer_offset <= footer_end:
            raise TraceError(
                f"{path!r} footer offset {self._footer_offset} lies outside "
                f"the file",
                last_good_offset=self._events_start,
            )
        self._file.seek(self._footer_offset)
        self.footer = self._read_json_block(_U64, "footer")
        self._file.seek(self._events_start)

    def _read_json_block(self, length: struct.Struct, what: str) -> dict:
        """The length-prefixed JSON object at the cursor (header, footer).

        A length past the end of the file is rejected before reading.
        """
        start = self._file.tell()
        nbytes = length.unpack(self._read_exact(length.size))[0]
        if nbytes > self.nbytes - self._file.tell():
            raise TraceError(
                f"{self.path!r} {what} length {nbytes} runs past the end of "
                f"the file",
                last_good_offset=start,
            )
        return _load_json(
            self._read_exact(nbytes), f"{what} in {self.path!r}", start
        )

    def _read_exact(self, nbytes: int) -> bytes:
        data = self._file.read(nbytes)
        if len(data) != nbytes:
            raise TraceError(f"{self.path!r} is truncated")
        return data

    _FRAME_HEAD = _U32.size + _U32.size + _U64.size

    def _read_frame_head(self) -> Tuple[int, int, int]:
        """``(kind, meta_len, payload_len)`` of the frame at the cursor.

        A length that runs past the end of the event stream (the footer,
        or the last complete frame of a salvaged trace) is rejected
        before anything that size is read.
        """
        head = self._read_exact(self._FRAME_HEAD)
        kind = _U32.unpack(head[:4])[0]
        meta_len = _U32.unpack(head[4:8])[0]
        payload_len = _U64.unpack(head[8:16])[0]
        if meta_len + payload_len > self._footer_offset - self._file.tell():
            raise TraceError(
                f"{self.path!r} frame lengths (meta {meta_len}, payload "
                f"{payload_len}) run past the end of the event stream"
            )
        return kind, meta_len, payload_len

    def _scan_frames(self) -> Tuple[int, int]:
        """Walk frames until truncation or garbage.

        Returns ``(last_good_offset, nevents)``: the byte offset just
        past the last complete, well-formed frame, and how many such
        frames precede it.  A frame is complete when its kind is known,
        its meta parses as JSON, and its payload fits in the file.
        """
        self._file.seek(0, 2)
        size = self._file.tell()
        self._file.seek(self._events_start)
        nevents = 0
        last_good = self._events_start
        while True:
            start = self._file.tell()
            head = self._file.read(self._FRAME_HEAD)
            if len(head) < self._FRAME_HEAD:
                break
            kind = _U32.unpack(head[:4])[0]
            meta_len = _U32.unpack(head[4:8])[0]
            payload_len = _U64.unpack(head[8:16])[0]
            if kind not in EVENT_NAMES:
                break
            end = start + self._FRAME_HEAD + meta_len + payload_len
            if end > size:
                break
            meta_raw = self._file.read(meta_len)
            if len(meta_raw) < meta_len:
                break
            try:
                json.loads(meta_raw)
            except ValueError:
                break
            self._file.seek(end)
            nevents += 1
            last_good = end
        return last_good, nevents

    def frame_index(self, decoded: bool = False) -> List[Tuple[int, int, int]]:
        """``(offset, kind, frame_nbytes)`` per complete frame.

        Walks only the frame headers (payloads are seeked over), so it
        is cheap even on large traces; shard planning weighs event
        ranges with it.  The file position is preserved.

        With ``decoded=True`` the size is the frame's *decoded payload*:
        the frame header plus the payload, compressed payloads counted
        at their post-inflate length (``__codec__["n"]``).  Replay cost
        tracks decoded payload bytes, not disk bytes — v2's
        zlib/XOR-delta encoding shrinks repetitive frames dramatically
        on disk without making them cheaper to apply — so shard
        planning should weigh with decoded sizes.  The meta block is
        left out: its size follows the recorded host call path, so under
        a deep host stack even a malloc or free frame carries kilobytes
        of it, while replaying one costs a small fraction of a launch.
        This variant reads and parses the meta block of each frame that
        has a payload; unparseable metas fall back to the on-disk size,
        and a frame whose lengths run past the event stream ends the
        index (the weight is a planning hint, and :meth:`events` is
        where corruption must surface as an error).
        """
        position = self._file.tell()
        try:
            self._file.seek(self._events_start)
            entries: List[Tuple[int, int, int]] = []
            while self._file.tell() < self._footer_offset:
                start = self._file.tell()
                try:
                    kind, meta_len, payload_len = self._read_frame_head()
                except TraceError:
                    break  # the index ends here; events() reports it
                total = self._FRAME_HEAD + meta_len + payload_len
                nbytes = self._FRAME_HEAD + payload_len if decoded else total
                if decoded and payload_len:
                    try:
                        meta = json.loads(
                            self._read_exact(meta_len).decode("utf-8")
                        )
                        codec = meta.get("__codec__")
                        if codec is not None:
                            nbytes = self._FRAME_HEAD + int(codec["n"])
                    except (UnicodeDecodeError, ValueError, TypeError, KeyError):
                        nbytes = total
                entries.append((start, kind, nbytes))
                self._file.seek(start + total)
            return entries
        finally:
            self._file.seek(position)

    def events(self) -> Iterator[Tuple[int, dict, ArrayDict]]:
        """Yield ``(kind, meta, arrays)`` per frame, in recorded order.

        A :class:`TraceError` raised mid-stream carries
        ``last_good_offset`` — the end of the last frame that was
        yielded whole — so callers can salvage.  That covers frames cut
        short by truncation *and* frames whose array descriptors are
        corrupt (unknown dtype, byte counts that do not divide into
        elements, shape/size mismatches): descriptor damage surfaces as
        a salvageable trace error, never a raw numpy exception.

        Delta-encoded v2 arrays are decoded statefully; iteration
        always restarts from the first frame, so the delta chain is
        complete regardless of how often ``events()`` is called.
        """
        self._file.seek(self._events_start)
        delta_state: Dict[str, bytes] = {}
        while self._file.tell() < self._footer_offset:
            frame_start = self._file.tell()
            try:
                kind, meta_len, payload_len = self._read_frame_head()
                meta = _load_json(
                    self._read_exact(meta_len),
                    f"frame meta in {self.path!r} at offset {frame_start}",
                    frame_start,
                )
                payload = self._read_exact(payload_len)
            except TraceError as exc:
                raise TraceError(
                    str(exc), last_good_offset=frame_start
                ) from None
            arrays: ArrayDict = {}
            try:
                codec = meta.pop("__codec__", None)
                if codec is not None:
                    payload = _inflate(payload, codec)
                for name, desc in meta.pop("__arrays__", {}).items():
                    start = int(desc["offset"])
                    nbytes = int(desc["nbytes"])
                    if start < 0 or nbytes < 0 or start + nbytes > len(payload):
                        raise ValueError(
                            f"array {name!r} descriptor addresses bytes "
                            f"outside the payload"
                        )
                    raw = payload[start : start + nbytes]
                    key = desc.get("dkey")
                    if desc.get("delta"):
                        previous = delta_state.get(key)
                        if previous is None or len(previous) != nbytes:
                            raise ValueError(
                                f"delta frame for {key!r} has no matching "
                                f"base payload"
                            )
                        raw = np.bitwise_xor(
                            np.frombuffer(raw, dtype=np.uint8),
                            np.frombuffer(previous, dtype=np.uint8),
                        ).tobytes()
                    if key is not None:
                        delta_state[key] = bytes(raw)
                    arrays[name] = np.frombuffer(
                        raw, dtype=np.dtype(desc["dtype"])
                    ).reshape(desc["shape"]).copy()
            except (
                ValueError, TypeError, KeyError, AttributeError, zlib.error
            ) as exc:
                raise TraceError(
                    f"corrupt array descriptor in {self.path!r} frame at "
                    f"offset {frame_start}: {exc}",
                    last_good_offset=frame_start,
                ) from exc
            yield kind, meta, arrays

    @property
    def nbytes(self) -> int:
        """Size of the trace file in bytes."""
        position = self._file.tell()
        self._file.seek(0, 2)
        size = self._file.tell()
        self._file.seek(position)
        return size

    def close(self) -> None:
        """Close the underlying file."""
        self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
