"""A frame that lacks a key its replay reads is a ``TraceError``.

Each case re-writes one frame of a small recorded bfs trace without a
key that replay needs: a launch meta without ``"records"``, a malloc
whose allocation descriptor has no ``"address"``, a v4 record whose
``r<i>.val`` array is missing.  Replay must refuse the frame before any
listener sees it, with a :class:`TraceError` that names the event index
and the key; the CLI must report it as ``repro: error:``, and a
resilient replay as the abort reason of its health report.  A
listener's own exception keeps its type.
"""

import pytest

from repro import ToolConfig, ValueExpert
from repro.cli import main as cli_main
from repro.errors import DegradedProfileWarning, TraceError
from repro.gpu.runtime import RuntimeListener
from repro.trace_io import (
    EVENT_LAUNCH,
    EVENT_MALLOC,
    EVENT_MEMCPY,
    TraceReader,
    TraceReplayer,
    TraceWriter,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("keys") / "bfs.vetrace")
    ValueExpert(ToolConfig()).profile(
        get_workload("rodinia/bfs")(scale=0.1, seed=0), record_path=path
    )
    return path


def _first(path, kind, test=lambda meta: True):
    with TraceReader(path) as reader:
        for index, (frame_kind, meta, _) in enumerate(reader.events()):
            if frame_kind == kind and test(meta):
                return index
    raise AssertionError("no such frame")


def _rewrite(recorded, tmp_path, target, edit):
    """Copy the recording with frame ``target`` edited in place."""
    path = str(tmp_path / "damaged.vetrace")
    with TraceReader(recorded) as reader:
        with TraceWriter(path, header=reader.header, version=reader.version) as out:
            for index, (kind, meta, arrays) in enumerate(reader.events()):
                if index == target:
                    edit(meta, arrays)
                out.write_event(kind, meta, arrays)
            out.close(reader.footer)
    return path


def _drop_records(meta, arrays):
    del meta["records"]


def _drop_address(meta, arrays):
    del meta["alloc"]["address"]


def _drop_values(meta, arrays):
    del arrays["r0.val"]


CASES = [
    (EVENT_LAUNCH, _drop_records, "lacks key 'records'"),
    (EVENT_MALLOC, _drop_address, "lacks key 'alloc.address'"),
    (EVENT_LAUNCH, _drop_values, "lacks array 'r0.val'"),
]


def _damaged(recorded, tmp_path, kind, edit):
    """The recording with ``edit`` applied to the first malloc, or to
    the first launch that has records."""
    if kind == EVENT_MALLOC:
        target = _first(recorded, kind)
    else:
        target = _first(recorded, kind, lambda meta: meta["records"])
    return _rewrite(recorded, tmp_path, target, edit), target


def test_the_rewrite_itself_changes_no_replay(recorded, tmp_path):
    target = _first(recorded, EVENT_LAUNCH)
    path = _rewrite(recorded, tmp_path, target, lambda meta, arrays: None)
    original = ValueExpert(ToolConfig()).profile_from_trace(recorded)
    copied = ValueExpert(ToolConfig()).profile_from_trace(path)
    assert copied.to_json() == original.to_json()


@pytest.mark.parametrize(
    "kind, edit, message", CASES, ids=[edit.__name__[1:] for _, edit, _ in CASES]
)
def test_missing_key_is_a_trace_error_naming_event_and_key(
    recorded, tmp_path, kind, edit, message
):
    path, target = _damaged(recorded, tmp_path, kind, edit)
    with pytest.raises(TraceError) as err:
        ValueExpert(ToolConfig()).profile_from_trace(path)
    assert f"event {target} " in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "kind, edit, message", CASES, ids=[edit.__name__[1:] for _, edit, _ in CASES]
)
def test_replay_cli_reports_a_missing_key(
    recorded, tmp_path, capsys, kind, edit, message
):
    path, _ = _damaged(recorded, tmp_path, kind, edit)
    assert cli_main(["replay", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind, edit, message", CASES, ids=[edit.__name__[1:] for _, edit, _ in CASES]
)
def test_resilient_replay_reports_a_missing_key(
    recorded, tmp_path, kind, edit, message
):
    path, _ = _damaged(recorded, tmp_path, kind, edit)
    with pytest.warns(DegradedProfileWarning):
        profile = ValueExpert(ToolConfig(resilient=True)).profile_from_trace(path)
    assert profile.health.workload_aborted
    assert profile.health.abort_reason.startswith("TraceError")
    assert message in profile.health.abort_reason


def test_no_listener_sees_a_frame_that_lacks_a_key(recorded, tmp_path):
    # Damage the second malloc, so that listeners see the events before it.
    with TraceReader(recorded) as reader:
        mallocs = [
            index
            for index, (kind, _, _) in enumerate(reader.events())
            if kind == EVENT_MALLOC
        ]
    target = mallocs[1]
    path = _rewrite(recorded, tmp_path, target, _drop_address)
    seen = []

    class Count(RuntimeListener):
        def on_api_end(self, event):
            seen.append(event.seq)

    with TraceReplayer(path) as replayer:
        replayer.subscribe(Count())
        with pytest.raises(TraceError):
            replayer.replay()
    assert len(seen) == target > 0


def test_a_listener_exception_keeps_its_type(recorded):
    class Boom(RuntimeListener):
        def on_api_end(self, event):
            raise ZeroDivisionError("listener bug")

    with TraceReplayer(recorded) as replayer:
        replayer.subscribe(Boom())
        with pytest.raises(ZeroDivisionError, match="listener bug"):
            replayer.replay()


def test_sharded_replay_names_the_event_too(recorded, tmp_path):
    path, target = _damaged(recorded, tmp_path, EVENT_LAUNCH, _drop_values)
    with pytest.raises(TraceError, match=f"event {target} "):
        ValueExpert(ToolConfig()).profile_from_trace(path, shards=2)


def test_a_missing_post_snapshot_is_refused(recorded, tmp_path):
    target = _first(recorded, EVENT_LAUNCH, lambda meta: meta.get("post"))

    def drop(meta, arrays):
        del arrays["p0"]

    path = _rewrite(recorded, tmp_path, target, drop)
    with pytest.raises(TraceError, match="lacks array 'p0'"):
        ValueExpert(ToolConfig()).profile_from_trace(path)


def test_a_missing_host_array_is_refused(recorded, tmp_path):
    target = _first(recorded, EVENT_MEMCPY, lambda meta: meta["kind"] == "h2d")

    def drop(meta, arrays):
        del arrays["host"]

    path = _rewrite(recorded, tmp_path, target, drop)
    with pytest.raises(TraceError, match="lacks array 'host'"):
        ValueExpert(ToolConfig()).profile_from_trace(path)


def test_a_descriptor_that_is_not_an_object_is_refused(recorded, tmp_path):
    target = _first(recorded, EVENT_MALLOC)

    def mangle(meta, arrays):
        meta["alloc"] = [1, 2]

    path = _rewrite(recorded, tmp_path, target, mangle)
    with pytest.raises(TraceError, match="'alloc' is not a JSON object"):
        ValueExpert(ToolConfig()).profile_from_trace(path)
