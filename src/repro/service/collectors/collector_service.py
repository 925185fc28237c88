"""Service-level collector: queue, pool, latency, and outcome series.

Everything here is recomputed from the job store at scrape time, so
the collector holds no state of its own — restarting the daemon resets
the series exactly as Prometheus expects of a fresh target.
"""

#: Job latency bucket bounds (seconds) — job runs take seconds, not
#: the microseconds the default pipeline-stage buckets cover.
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0)


def collect(service, registry):
    counts = service.store.counts()
    jobs = registry.gauge(
        "repro_service_jobs",
        "Jobs known to the service, by lifecycle state.",
        labelnames=("state",),
    )
    for state, count in sorted(counts.items()):
        jobs.labels(state=state).set(count)
    registry.gauge(
        "repro_service_queue_depth",
        "Jobs waiting for a free worker.",
    ).set(counts["queued"])
    registry.gauge(
        "repro_service_workers",
        "Size of the worker-process pool.",
    ).set(service.pool.size)
    registry.gauge(
        "repro_service_busy_workers",
        "Workers currently executing a job.",
    ).set(service.pool.busy_workers)
    registry.gauge(
        "repro_service_worker_utilization",
        "Busy fraction of the worker pool (0-1).",
    ).set(service.pool.utilization)
    registry.gauge(
        "repro_service_uptime_seconds",
        "Seconds since the service started.",
    ).set(service.uptime_seconds)
    registry.gauge(
        "repro_service_collectors",
        "Collectors feeding the scrape registry.",
    ).set(len(service.collectors))

    outcomes = registry.counter(
        "repro_service_jobs_completed_total",
        "Jobs that reached a terminal state, by outcome.",
        labelnames=("outcome",),
    )
    for outcome in ("done", "failed", "cancelled"):
        outcomes.labels(outcome=outcome).inc(counts[outcome])

    supervision = service.pool.counters
    registry.counter(
        "repro_job_retries_total",
        "Failed attempts requeued for another run (backoff applied).",
    ).inc(supervision["retries"])
    registry.counter(
        "repro_job_timeouts_total",
        "Attempts cut short by the per-job deadline watchdog.",
    ).inc(supervision["timeouts"])
    registry.counter(
        "repro_worker_kills_total",
        "Workers that ignored SIGTERM and needed the SIGKILL escalation.",
    ).inc(supervision["kills"])
    registry.counter(
        "repro_worker_crashes_total",
        "Worker processes that exited without reporting a result.",
    ).inc(supervision["crashes"])

    registry.gauge(
        "repro_service_durable",
        "1 when the job store writes a WAL, 0 for in-memory only.",
    ).set(0 if service.store.wal is None else 1)
    if service.store.wal is not None:
        registry.gauge(
            "repro_service_wal_bytes",
            "On-disk size of the job write-ahead log.",
        ).set(service.store.wal.size_bytes)
    recovery = registry.gauge(
        "repro_service_recovered_jobs",
        "Jobs rebuilt from the WAL at startup, by disposition.",
        labelnames=("disposition",),
    )
    recovery.labels(disposition="total").set(service.store.recovered_jobs)
    recovery.labels(disposition="requeued").set(
        service.store.requeued_on_recovery
    )
    recovery.labels(disposition="failed").set(
        service.store.failed_on_recovery
    )
    registry.gauge(
        "repro_service_wal_torn_on_load",
        "1 when startup salvaged a torn WAL tail, else 0.",
    ).set(1 if service.store.wal_torn_on_load else 0)

    queue_wait = registry.histogram(
        "repro_service_job_queue_seconds",
        "Time jobs spent waiting in the queue.",
        buckets=LATENCY_BUCKETS,
    )
    run_time = registry.histogram(
        "repro_service_job_run_seconds",
        "Wall time jobs spent executing on a worker.",
        buckets=LATENCY_BUCKETS,
    )
    latency = registry.histogram(
        "repro_service_job_latency_seconds",
        "Submit-to-terminal latency of finished jobs.",
        buckets=LATENCY_BUCKETS,
    )
    for record in service.store.list():
        if record.queue_seconds is not None:
            queue_wait.observe(record.queue_seconds)
        if record.run_seconds is not None:
            run_time.observe(record.run_seconds)
        if record.total_seconds is not None and record.state.terminal:
            latency.observe(record.total_seconds)

    errors = registry.counter(
        "repro_service_collector_errors_total",
        "Scrape-time collector failures, by collector.",
        labelnames=("collector",),
    )
    for name, count in sorted(service.collector_errors.items()):
        errors.labels(collector=name).inc(count)
