"""Accepted-delta baselines and shared baseline-file plumbing.

A baseline is a committed JSON file naming the delta keys
(``kind:site:pattern:object``) a project has reviewed and accepted.
Applying it to a :class:`~repro.tracediff.differ.TraceDiff` moves the
accepted deltas out of the flagged list, so CI fails only on *new*
regressions — exactly how ``staticlint_baseline.txt`` gates lint
findings.

:func:`write_text_atomic` is the shared write helper: both
``trace-diff --write-baseline`` and ``lint --write-baseline`` go
through it, so a crashed writer can never leave a torn baseline behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Set

from repro.errors import ReproError
from repro.tracediff.differ import TraceDiff

#: Format version stamped into (and checked against) baseline files.
BASELINE_VERSION = 1


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + rename)."""
    if not text.endswith("\n"):
        text += "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


@dataclass
class Baseline:
    """The set of delta keys a project has accepted."""

    accepted: Set[str] = field(default_factory=set)
    note: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation (keys sorted for stable diffs)."""
        out = {
            "version": BASELINE_VERSION,
            "accepted": sorted(self.accepted),
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_diff(cls, diff: TraceDiff, note: str = "") -> "Baseline":
        """A baseline accepting every delta the diff currently shows
        (flagged and already-baselined alike, so re-writing a baseline
        never silently un-accepts old entries that still occur)."""
        return cls(
            accepted={d.key for d in diff.deltas}
            | {d.key for d in diff.baselined},
            note=note,
        )


def load_baseline(path: str) -> Baseline:
    """Read a baseline file; :class:`ReproError` on damage or skew."""
    try:
        with open(path, "rb") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read baseline {path!r}: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError, and nesting deeper than the
    # parser's recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ReproError(f"baseline {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(
            f"baseline {path!r} is malformed: expected a JSON object, got "
            f"{type(data).__name__}"
        )
    version = data.get("version")
    if version != BASELINE_VERSION:
        raise ReproError(
            f"baseline {path!r} has format version {version!r}; this "
            f"reader understands version {BASELINE_VERSION} only"
        )
    accepted = data.get("accepted")
    if not isinstance(accepted, list) or not all(
        isinstance(key, str) for key in accepted
    ):
        raise ReproError(
            f"baseline {path!r} is malformed: 'accepted' must be a "
            f"list of delta-key strings"
        )
    return Baseline(accepted=set(accepted), note=data.get("note", ""))


def save_baseline(path: str, baseline: Baseline) -> None:
    """Write a baseline file atomically."""
    write_text_atomic(path, json.dumps(baseline.to_dict(), indent=2))


def apply_baseline(diff: TraceDiff, baseline: Baseline) -> List[str]:
    """Suppress accepted deltas in-place.

    Moves every delta whose key the baseline accepts from
    ``diff.deltas`` to ``diff.baselined`` and returns the accepted keys
    that matched nothing — stale entries worth pruning.
    """
    kept = []
    suppressed = []
    for delta in diff.deltas:
        (suppressed if delta.key in baseline.accepted else kept).append(delta)
    diff.deltas = kept
    diff.baselined.extend(suppressed)
    matched = {d.key for d in suppressed} | {d.key for d in kept}
    return sorted(baseline.accepted - matched)
