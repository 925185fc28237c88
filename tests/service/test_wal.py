"""The job write-ahead log: salvage discipline and store replay.

The durability contract: every entry acknowledged before a crash is
replayed after it; a torn tail (the one thing an append-only writer can
corrupt) is dropped loudly and truncated on reopen, never fatal.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.resilience import FaultInjector, FaultPlan
from repro.service import (
    JobResult,
    JobSpec,
    JobState,
    JobStore,
    WriteAheadLog,
    load_wal,
)


def _wal(tmp_path):
    return str(tmp_path / "jobs.wal")


def test_missing_file_is_empty_untorn_log(tmp_path):
    entries, torn, good = load_wal(_wal(tmp_path))
    assert entries == [] and not torn and good == 0


def test_append_and_reload_roundtrip(tmp_path):
    path = _wal(tmp_path)
    written = [
        {"op": "submit", "id": "job-0001", "spec": {}},
        {"op": "state", "id": "job-0001", "to": "running", "attempt": 1},
        {"op": "state", "id": "job-0001", "to": "done", "result": {}},
    ]
    with WriteAheadLog(path) as wal:
        for entry in written:
            wal.append(entry)
        assert wal.entries_written == 3
    entries, torn, good = load_wal(path)
    assert entries == written
    assert not torn
    assert good == wal.size_bytes


def test_torn_tail_salvages_complete_prefix(tmp_path):
    path = _wal(tmp_path)
    with WriteAheadLog(path) as wal:
        wal.append({"op": "submit", "id": "a"})
        wal.append({"op": "state", "id": "a", "to": "running"})
    with open(path, "ab") as handle:
        handle.write(b'{"op": "state", "id": "a", "to"')  # no newline
    entries, torn, good = load_wal(path)
    assert torn
    assert [e["op"] for e in entries] == ["submit", "state"]
    assert good < wal.size_bytes + 31


@pytest.mark.parametrize(
    "line",
    [b"%% not json %%", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-json", "deep-nesting"],
)
def test_undecodable_line_is_the_tear_point(tmp_path, line):
    path = _wal(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b'{"op": "submit", "id": "a"}\n')
        handle.write(line + b"\n")
        handle.write(b'{"op": "state", "id": "a", "to": "done"}\n')
    entries, torn, _ = load_wal(path)
    # Everything after the corrupt line is unreachable garbage.
    assert torn and len(entries) == 1


def test_non_entry_json_is_the_tear_point(tmp_path):
    path = _wal(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b'{"op": "submit", "id": "a"}\n')
        handle.write(b'["no", "op", "key"]\n')
    entries, torn, _ = load_wal(path)
    assert torn and len(entries) == 1


def test_reopen_truncates_torn_tail(tmp_path):
    path = _wal(tmp_path)
    with WriteAheadLog(path) as wal:
        wal.append({"op": "submit", "id": "a"})
    with open(path, "ab") as handle:
        handle.write(b'{"torn')
    with WriteAheadLog(path) as wal:
        wal.append({"op": "state", "id": "a", "to": "done"})
    entries, torn, _ = load_wal(path)
    assert not torn
    assert [e["op"] for e in entries] == ["submit", "state"]


def test_injected_tear_halts_the_writer(tmp_path):
    plan = FaultPlan(seed=7, torn_wal_after=2, scope="service")
    path = _wal(tmp_path)
    with WriteAheadLog(path, fault_injector=FaultInjector(plan)) as wal:
        for index in range(6):
            wal.append({"op": "submit", "id": f"job-{index}"})
        assert wal.torn
    entries, torn, _ = load_wal(path)
    assert torn
    assert len(entries) == 2  # complete entries before the tear


def test_unwritable_path_raises_service_error(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("file in the way")
    with pytest.raises(ServiceError, match="cannot open job WAL"):
        WriteAheadLog(str(target / "jobs.wal"))


# -- store replay -----------------------------------------------------------


def test_store_replays_every_lifecycle(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(wal_path=path)
    done = store.submit(JobSpec(workload="w"))
    store.claim()
    store.mark_done(
        done.id,
        JobResult(
            summary="s", profile_path="/tmp/p.json",
            pattern_counts={"single_value": 3}, elapsed_s=1.5,
        ),
    )
    failed = store.submit(JobSpec(workload="w"))
    store.claim()
    store.mark_failed(failed.id, "exploded")
    cancelled = store.submit(JobSpec(workload="w"))
    store.mark_cancelled(cancelled.id, "not wanted")
    queued = store.submit(JobSpec(workload="w"))
    store.close()

    revived = JobStore(wal_path=path)
    assert revived.get(done.id).state is JobState.DONE
    result = revived.get(done.id).result
    assert result.profile_path == "/tmp/p.json"
    assert result.pattern_counts == {"single_value": 3}
    assert result.elapsed_s == 1.5
    assert result.metrics is None  # telemetry is not persisted
    assert revived.get(failed.id).state is JobState.FAILED
    assert revived.get(failed.id).error == "exploded"
    assert revived.get(cancelled.id).state is JobState.CANCELLED
    assert revived.get(queued.id).state is JobState.QUEUED
    assert all(r.recovered for r in revived.list())
    assert revived.recovered_jobs == 4
    # The id sequence continues where the dead store stopped.
    fresh = revived.submit(JobSpec(workload="w"))
    assert fresh.id == "job-0005"
    assert not fresh.recovered
    revived.close()


def test_store_replay_requeues_in_flight_with_budget(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(wal_path=path)
    record = store.submit(JobSpec(workload="w", max_retries=1))
    store.claim()
    store.close()  # daemon "dies" with the job RUNNING

    revived = JobStore(wal_path=path)
    recovered = revived.get(record.id)
    assert recovered.state is JobState.QUEUED
    assert recovered.retry_after is None  # claimable immediately
    assert recovered.attempt_history[-1]["error"] == (
        "daemon restarted while job was running"
    )
    assert revived.requeued_on_recovery == 1
    claimed = revived.claim()
    assert claimed.id == record.id and claimed.attempt == 2
    revived.close()


def test_store_replay_fails_in_flight_without_budget(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(wal_path=path)
    record = store.submit(JobSpec(workload="w", max_retries=0))
    store.claim()
    store.close()

    revived = JobStore(wal_path=path)
    recovered = revived.get(record.id)
    assert recovered.state is JobState.FAILED
    assert "restarted" in recovered.error
    assert revived.failed_on_recovery == 1
    revived.close()


def test_store_replay_honors_cancel_requested_mid_flight(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(wal_path=path)
    record = store.submit(JobSpec(workload="w", max_retries=3))
    store.claim()
    store.request_cancel(record.id)
    store.close()

    revived = JobStore(wal_path=path)
    assert revived.get(record.id).state is JobState.CANCELLED
    revived.close()


def test_store_replay_survives_torn_tail(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(wal_path=path)
    first = store.submit(JobSpec(workload="w"))
    store.submit(JobSpec(workload="w"))
    store.close()
    # Tear the last entry mid-line, as a crash mid-append would.
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) - 9])

    revived = JobStore(wal_path=path)
    assert revived.wal_torn_on_load
    # The first job survived; the second's submit entry was the tear.
    assert revived.get(first.id).state is JobState.QUEUED
    assert revived.recovered_jobs == 1
    revived.close()


def test_retry_requeue_is_replayed(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(
        wal_path=path, backoff_base_s=0.01, backoff_cap_s=0.02
    )
    record = store.submit(JobSpec(workload="w", max_retries=2))
    store.claim()
    store.finish_attempt(record.id, "first boom")
    store.close()

    revived = JobStore(wal_path=path)
    recovered = revived.get(record.id)
    assert recovered.state is JobState.QUEUED
    assert recovered.attempt == 1
    assert recovered.attempt_history[0]["error"] == "first boom"
    # The replayed requeue re-serves its backoff from restart time.
    delay = recovered.attempt_history[0]["retry_delay_s"]
    assert delay > 0
    revived.close()


def test_wal_entries_are_compact_json_lines(tmp_path):
    path = _wal(tmp_path)
    store = JobStore(wal_path=path)
    store.submit(JobSpec(workload="w"))
    store.close()
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["op"] == "submit"
    assert lines[0].startswith(b'{"op":"submit"')
