"""In-process end-to-end: concurrent jobs, folded metrics, fidelity.

The load-bearing claim: results served by the daemon are byte-identical
to what the one-shot ``ValueExpert`` produces for the same inputs —
running under the service (private registries, process pool, merged
scrape) never perturbs the analysis.
"""

import json

import pytest

from repro.errors import ServiceError
from repro.gpu.timing import RTX_2080_TI
from repro.resilience import FaultPlan
import repro.service.service as service_module
from repro.service import JobSpec, JobState, ProfilingService, ServiceConfig
from repro.service.collectors import COLLECTORS
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload

from tests.service.conftest import SCALE

CHAOS_SEED = 5


@pytest.fixture(scope="module")
def fleet(tmp_path_factory, recorded_trace):
    """One service run with four concurrent jobs of every flavour."""
    artifact_dir = str(tmp_path_factory.mktemp("fleet"))
    service = ProfilingService(
        ServiceConfig(workers=4, artifact_dir=artifact_dir)
    ).start()
    specs = [
        JobSpec(workload="rodinia/bfs", scale=SCALE),
        JobSpec(workload="rodinia/pathfinder", scale=SCALE),
        JobSpec(trace=recorded_trace, shards=2),
        JobSpec(
            workload="rodinia/bfs",
            scale=SCALE,
            label="bfs-chaos",
            chaos_seed=CHAOS_SEED,
            options={"resilient": True},
        ),
    ]
    records = [service.submit(spec) for spec in specs]
    assert service.store.wait_idle(timeout=300.0)
    yield service, records
    service.shutdown(drain=False)


def test_all_jobs_complete(fleet):
    service, records = fleet
    for record in records:
        assert record.state is JobState.DONE, (record.id, record.error)
    assert service.store.counts()["done"] == 4


def test_live_results_byte_identical_to_direct_run(fleet):
    _service, records = fleet
    for record in records[:2]:
        workload = get_workload(record.spec.workload)(scale=SCALE)
        direct = ValueExpert(ToolConfig()).profile(
            workload.run_baseline, platform=RTX_2080_TI, name=workload.name
        )
        with open(record.result.profile_path) as handle:
            assert handle.read() == direct.to_json() + "\n"


def test_replay_result_byte_identical_to_direct_serial_replay(
    fleet, recorded_trace
):
    _service, records = fleet
    direct = ValueExpert(ToolConfig()).profile_from_trace(recorded_trace)
    with open(records[2].result.profile_path) as handle:
        assert handle.read() == direct.to_json() + "\n"


def test_chaos_result_byte_identical_and_healthy(fleet):
    _service, records = fleet
    workload = get_workload("rodinia/bfs")(scale=SCALE)
    direct = ValueExpert(
        ToolConfig(resilient=True, fault_plan=FaultPlan.chaos(CHAOS_SEED))
    ).profile(
        workload.run_baseline, platform=RTX_2080_TI, name=workload.name
    )
    record = records[3]
    with open(record.result.profile_path) as handle:
        assert handle.read() == direct.to_json() + "\n"
    assert record.result.health is not None
    assert record.result.health["faults_injected"] > 0


def test_scrape_carries_per_job_series(fleet):
    service, records = fleet
    text = service.scrape()
    assert 'repro_service_jobs_completed_total{outcome="done"} 4' in text
    for record in records:
        needle = (
            f'job="{record.id}",workload="{record.spec.display_name}"'
        )
        assert f"repro_job_elapsed_seconds{{{needle}}}" in text
    # Worker-side telemetry merged with job labels into shared families.
    assert f'repro_job_pattern_hits{{job="{records[0].id}"' in text
    assert text.count("# TYPE repro_job_pattern_hits") == 1


def test_scrape_carries_resilience_gauges(fleet):
    service, records = fleet
    chaos = records[3]
    text = service.scrape()
    label = f'job="{chaos.id}",workload="bfs-chaos"'
    faults = [
        line
        for line in text.splitlines()
        if line.startswith(f"repro_resilience_faults_injected{{{label}}}")
    ]
    assert faults and float(faults[0].rsplit(" ", 1)[1]) > 0
    assert f"repro_resilience_degradation_level{{{label}}}" in text
    assert f"repro_resilience_degraded{{{label}}}" in text


def test_chrome_trace_has_one_lane_per_job(fleet):
    service, records = fleet
    events = json.loads(service.chrome_trace())
    lanes = {
        e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    assert lanes == {
        f"{record.id}: {record.spec.display_name}" for record in records
    }
    assert len({e["pid"] for e in events}) == len(records)


def test_status_document(fleet):
    service, _records = fleet
    status = service.status()
    assert status["jobs"]["done"] == 4
    assert status["workers"] == 4
    assert {c["name"] for c in status["collectors"]} >= {
        "service", "jobs", "resilience",
    }


# -- paths that need their own service instance ------------------------------


#: A service fault plan whose every attempt hard-exits (exit code 17).
CRASH_EVERY_ATTEMPT = {"seed": 0, "worker_crash_rate": 1.0, "scope": "service"}


def test_worker_crash_lands_in_failed(service_factory):
    service = service_factory(workers=1)
    record = service.submit(
        JobSpec(workload="rodinia/bfs", scale=0.25, faults=CRASH_EVERY_ATTEMPT)
    )
    service.store.wait(record.id, timeout=120.0)
    assert record.state is JobState.FAILED
    assert "crashed without reporting" in record.error
    assert "exit code 17" in record.error


def test_worker_error_detail_reaches_record(service_factory):
    service = service_factory(workers=1)
    record = service.submit(JobSpec(trace="/nonexistent/x.vetrace"))
    service.store.wait(record.id, timeout=120.0)
    assert record.state is JobState.FAILED
    assert "TraceError" in record.error or "Error" in record.error


def test_failed_job_folds_nothing(service_factory):
    service = service_factory(workers=1)
    record = service.submit(
        JobSpec(workload="rodinia/bfs", scale=0.25, faults=CRASH_EVERY_ATTEMPT)
    )
    service.store.wait(record.id, timeout=120.0)
    assert service.job_metrics.names() == []
    text = service.scrape()
    assert 'repro_service_jobs_completed_total{outcome="failed"} 1' in text


def test_submit_rejected_after_shutdown(service_factory):
    service = service_factory()
    service.shutdown(drain=True)
    with pytest.raises(ServiceError, match="shutting down"):
        service.submit(JobSpec(workload="rodinia/bfs"))


def test_third_party_collector_reaches_scrape(service_factory, monkeypatch):
    def site(service, registry):
        registry.gauge("site_rack_temp_celsius", "rack temp").set(21.5)

    monkeypatch.setattr(
        service_module, "COLLECTORS", COLLECTORS + (("site", site),)
    )
    service = service_factory()
    assert "site_rack_temp_celsius 21.5" in service.scrape()


def test_collector_failure_is_isolated(service_factory, monkeypatch):
    def flaky(service, registry):
        raise RuntimeError("scrape-time explosion")

    monkeypatch.setattr(
        service_module, "COLLECTORS", COLLECTORS + (("flaky", flaky),)
    )
    service = service_factory()
    text = service.scrape()
    # The built-ins still produced output and the failure is counted.
    assert "repro_service_uptime_seconds" in text
    assert service.collector_errors["flaky"] == 1
    assert (
        'repro_service_collector_errors_total{collector="flaky"} 1'
        in service.scrape()
    )
