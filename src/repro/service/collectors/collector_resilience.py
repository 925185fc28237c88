"""Resilience collector: per-job HealthReport dimensions as gauges.

Chaos runs and degraded production jobs become visible on the scrape
endpoint instead of living only in the report object: every completed
job that carries a :class:`~repro.resilience.HealthReport` gets one
``repro_resilience_*{job=...,workload=...}`` gauge per degradation
dimension.  The five headline gauges share names (and values) with the
ones the facade records into each worker's own registry, so the two
sources land in the same metric families after the per-job merge.
"""

from repro.resilience import HealthReport

#: HealthReport fields surfaced per job: (metric suffix, dict key, help).
_DIMENSIONS = (
    ("faults_injected", "faults_injected",
     "Faults fired by the injection harness in the job."),
    ("quarantined_launches", "quarantined_launches",
     "Kernel launches quarantined in the job."),
    ("salvaged_frames", "salvaged_events",
     "Events salvaged from a truncated recording in the job."),
    ("degradation_level", "degradation_level",
     "Degradation-ladder rung the job ended on (0 = full fidelity)."),
    ("dropped_records", "dropped_records",
     "Access records dropped by the substrate in the job."),
    ("repaired_records", "repaired_records",
     "Torn access records repaired in the job."),
    ("budget_fallbacks", "budget_fallbacks",
     "Memory-budget ladder escalations in the job."),
    ("alloc_failures", "alloc_failures",
     "Device allocations that failed during the job."),
    ("corrupted_copies", "corrupted_copies",
     "Copies whose bytes were corrupted in flight during the job."),
    ("stub_kernels", "stub_kernels",
     "Kernels synthesized as stubs for a salvaged trace footer."),
)


def collect(service, registry):
    gauges = {
        suffix: registry.gauge(
            f"repro_resilience_{suffix}", help,
            labelnames=("job", "workload"),
        )
        for suffix, _key, help in _DIMENSIONS
    }
    degraded = registry.gauge(
        "repro_resilience_degraded",
        "1 when the job completed degraded, else 0.",
        labelnames=("job", "workload"),
    )
    aborted = registry.gauge(
        "repro_resilience_workload_aborted",
        "1 when the job's workload died mid-run, else 0.",
        labelnames=("job", "workload"),
    )
    for record in service.store.list():
        result = record.result
        if result is None or result.health is None:
            continue
        health = result.health
        labels = {"job": record.id, "workload": record.spec.display_name}
        for suffix, key, _help in _DIMENSIONS:
            gauges[suffix].labels(**labels).set(float(health.get(key, 0) or 0))
        report = HealthReport.from_dict(health)
        degraded.labels(**labels).set(0 if report.pristine else 1)
        aborted.labels(**labels).set(1 if report.workload_aborted else 0)
