"""Write-ahead log for the job store: JSONL, append-only, torn-tolerant.

The durability layer of the continuous-profiling daemon.  Every job
submit, state transition, and (JSON-safe) result is appended to one
``jobs.wal`` file as a single JSON line *before* the in-memory store
acknowledges it; on startup the store replays the log and is back where
the previous daemon died — SIGKILL included.

The format borrows the ``.vetrace`` salvage discipline: a crash can
only ever tear the *tail* of an append-only file, so the reader accepts
every complete line up to the first undecodable or unterminated one and
reports the torn remainder instead of raising.  Re-opening the log for
append first truncates that torn tail, so the next entry starts on a
clean line boundary.

Entries are dicts with an ``op`` key:

- ``{"op": "submit", "id", "spec", "submitted_unix"}``
- ``{"op": "state", "id", "to", ...}`` — extra keys depend on the
  transition: ``attempt`` (running), ``error``/``history`` (failed),
  ``retry_delay_s`` (requeue), ``result`` (done; the JSON-safe subset
  of the :class:`~repro.service.jobs.JobResult` — pickled payloads like
  the worker's metrics registry are deliberately not persisted).

Chaos hook: a :class:`~repro.resilience.FaultInjector` whose plan sets
``torn_wal_after`` makes the writer die mid-entry once — half a line,
no newline, then silence — which is exactly what the recovery tests
feed back through :func:`load_wal`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError


def load_wal(path: str) -> Tuple[List[Dict], bool, int]:
    """Read every salvageable entry of a WAL file.

    Returns ``(entries, torn, good_bytes)``: the decoded entries in
    append order, whether a torn tail was dropped, and the byte offset
    of the end of the last complete entry (where an appending writer
    must resume).  A missing file is an empty, untorn log.
    """
    if not os.path.exists(path):
        return [], False, 0
    entries: List[Dict] = []
    good = 0
    torn = False
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Unterminated final line: the writer died mid-append.
            torn = True
            break
        line = data[offset:newline]
        if line.strip():
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError):
                # A corrupt line can only be the tear point; everything
                # after it is unreachable garbage.
                torn = True
                break
            if not isinstance(entry, dict) or "op" not in entry:
                torn = True
                break
            entries.append(entry)
        offset = newline + 1
        good = offset
    return entries, torn, good


class WriteAheadLog:
    """Append-only JSONL writer with crash-consistent appends.

    Opening truncates any torn tail left by a previous crash (callers
    replay the salvageable prefix first via :func:`load_wal`).  Every
    append is flushed and fsynced before returning — a job the store
    acknowledged is a job a restarted daemon will know about.
    """

    def __init__(self, path: str, fault_injector=None):
        self.path = path
        self._injector = fault_injector
        self.entries_written = 0
        #: Set once an injected tear fired: the writer goes silent, the
        #: way a dead daemon would.
        self.torn = False
        try:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            _, _, good = load_wal(path)
            self._handle = open(path, "ab")
            if self._handle.tell() > good:
                self._handle.truncate(good)
                self._handle.seek(good)
        except OSError as exc:
            raise ServiceError(
                f"cannot open job WAL {path!r}: {exc}"
            ) from exc

    def append(self, entry: Dict) -> None:
        """Durably append one entry (no-op after an injected tear)."""
        if self.torn or self._handle.closed:
            return
        line = json.dumps(entry, separators=(",", ":")).encode()
        if self._injector is not None and self._injector.take_wal_tear(
            self.entries_written
        ):
            # Injected crash mid-write: half the line, no newline.
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.torn = True
            return
        self._handle.write(line + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.entries_written += 1

    @property
    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None
