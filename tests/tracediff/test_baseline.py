"""Baseline files: round-trip, damage handling, suppression, atomic writes."""

import json
import os

import pytest

from repro.errors import ReproError
from repro.staticlint.similarity import MatchReport
from repro.tracediff import (
    Baseline,
    Delta,
    DeltaKind,
    TraceDiff,
    apply_baseline,
    load_baseline,
    save_baseline,
    write_text_atomic,
)


def _diff(deltas=(), baselined=()):
    return TraceDiff(
        old_path="old.vetrace",
        new_path="new.vetrace",
        old_workload="wl",
        new_workload="wl",
        matching=MatchReport(matches=[], removed=[], added=[]),
        deltas=list(deltas),
        baselined=list(baselined),
    )


def _delta(kind=DeltaKind.NEW_REDUNDANCY, site="k", pattern="single zero",
           obj="o"):
    return Delta(kind=kind, site=site, pattern=pattern, object_label=obj)


def test_round_trip(tmp_path):
    path = str(tmp_path / "baseline.json")
    baseline = Baseline(accepted={"b:k:p:o", "a:k:p:o"}, note="why")
    save_baseline(path, baseline)
    loaded = load_baseline(path)
    assert loaded.accepted == baseline.accepted
    assert loaded.note == "why"
    # Keys are sorted on disk for stable git diffs.
    on_disk = json.loads(open(path).read())
    assert on_disk["accepted"] == sorted(baseline.accepted)
    assert on_disk["version"] == 1


def test_missing_file_raises(tmp_path):
    with pytest.raises(ReproError, match="cannot read baseline"):
        load_baseline(str(tmp_path / "nope.json"))


@pytest.mark.parametrize(
    "content",
    [b"{not json", b'{"version": 1, "note": "\xff"}', b"[" * 200_000],
    ids=["not-json", "bad-utf8", "deep-nesting"],
)
def test_invalid_json_raises(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ReproError, match="not valid JSON"):
        load_baseline(str(path))


def test_version_skew_raises(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"version": 99, "accepted": []}))
    with pytest.raises(ReproError, match="format version 99"):
        load_baseline(str(path))


@pytest.mark.parametrize(
    "document",
    [{"version": 1, "accepted": [1, 2]}, [1, 2], 5],
    ids=["int-keys", "list", "number"],
)
def test_malformed_accepted_raises(tmp_path, document):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ReproError, match="malformed"):
        load_baseline(str(path))


def test_apply_baseline_suppresses_and_reports_stale():
    keep = _delta(site="other")
    suppress = _delta(site="k")
    diff = _diff(deltas=[keep, suppress])
    stale = apply_baseline(
        diff, Baseline(accepted={suppress.key, "gone:x:-:-"})
    )
    assert diff.deltas == [keep]
    assert diff.baselined == [suppress]
    assert stale == ["gone:x:-:-"]
    assert not diff.clean
    assert diff.flagged([DeltaKind.NEW_REDUNDANCY]) == [keep]


def test_from_diff_keeps_already_baselined_keys():
    flagged = _delta(site="a")
    suppressed = _delta(site="b")
    baseline = Baseline.from_diff(
        _diff(deltas=[flagged], baselined=[suppressed]), note="n"
    )
    assert baseline.accepted == {flagged.key, suppressed.key}
    assert baseline.note == "n"


def test_write_text_atomic(tmp_path):
    path = str(tmp_path / "file.txt")
    write_text_atomic(path, "first")
    assert open(path).read() == "first\n"
    write_text_atomic(path, "second\n")
    assert open(path).read() == "second\n"
    assert not os.path.exists(path + ".tmp")
