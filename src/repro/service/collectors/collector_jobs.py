"""Per-job collector: pattern hits, self-overhead, and worker pipelines.

Two jobs for one collector:

- emit labelled per-job summary series (pattern hits, self time,
  elapsed) computed from each completed job's result;
- fold the service's merged worker registries (every job's private
  ``repro.obs`` pipeline metrics, already ``{job=...,workload=...}``
  labelled at completion) into the scrape registry, so the full
  collector/analyzer/flowgraph instrument set appears per job.
"""


def collect(service, registry):
    registry.merge(service.job_metrics)
    pattern_hits = registry.gauge(
        "repro_job_pattern_hits",
        "Pattern hits found by a job, per pattern.",
        labelnames=("job", "workload", "pattern"),
    )
    self_seconds = registry.gauge(
        "repro_job_self_seconds",
        "Profiler self time (depth-0 spans) of a job.",
        labelnames=("job", "workload"),
    )
    elapsed = registry.gauge(
        "repro_job_elapsed_seconds",
        "Worker wall time of a job.",
        labelnames=("job", "workload"),
    )
    for record in service.store.list():
        result = record.result
        if result is None:
            continue
        labels = {"job": record.id, "workload": record.spec.display_name}
        self_seconds.labels(**labels).set(result.self_seconds)
        elapsed.labels(**labels).set(result.elapsed_s)
        for pattern, count in sorted(result.pattern_counts.items()):
            pattern_hits.labels(pattern=pattern, **labels).set(count)
