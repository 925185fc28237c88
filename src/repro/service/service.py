"""ProfilingService — store + pool + collectors behind one object.

The HTTP layer is a thin shell over this class, so tests (and embedded
users) can drive the whole service in-process: ``submit`` jobs, wait
on the store, ``scrape()`` the Prometheus exposition, export the
multi-lane ``chrome_trace()``, and ``shutdown`` with or without a
drain.

On every job completion the worker's private metrics registry is
folded into :attr:`job_metrics` via :meth:`~repro.obs.MetricsRegistry.
merge` with ``{job=..., workload=...}`` labels — the "no shared
module-global registry" contract end to end: workers record privately,
the service owns the union.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import QueueFullError, ServiceError
from repro.obs import MetricsRegistry, Span
from repro.obs.export import lane_trace_json
from repro.service.collectors import COLLECTORS
from repro.service.jobs import JobRecord, JobSpec, JobStore
from repro.service.pool import WorkerPool


@dataclass
class ServiceConfig:
    """Daemon configuration (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    #: Where profile/trace artifacts land (a temp dir when omitted).
    artifact_dir: Optional[str] = None
    #: Worker-process start method override (tests use "fork").
    start_method: Optional[str] = None
    #: Seconds a graceful shutdown waits for the backlog.
    drain_timeout: float = 60.0
    #: Durable state directory: the job WAL lives at
    #: ``<state_dir>/jobs.wal`` and is replayed on startup, so a
    #: SIGKILLed daemon restarted with the same directory recovers
    #: every job.  ``None`` keeps the store in memory only.
    state_dir: Optional[str] = None
    #: Admission limit: submissions beyond this many QUEUED jobs are
    #: rejected with :class:`~repro.errors.QueueFullError` (HTTP 429).
    #: ``None`` = unbounded.
    max_queue_depth: Optional[int] = None
    #: Deadline for jobs whose spec sets none (``None`` = unlimited).
    default_deadline_s: Optional[float] = None
    #: Retry backoff bounds (decorrelated jitter draws within them).
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    #: Seconds between SIGTERM and the SIGKILL escalation for workers
    #: that will not die politely.
    kill_grace_s: float = 5.0
    #: Service-scope chaos plan (tests/CI): a plan with
    #: ``torn_wal_after`` makes the WAL writer die mid-entry once.
    fault_plan: Optional[object] = None


class ProfilingService:
    """A running fleet-mode profiler (sans HTTP — see service.http)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        injector = None
        if self.config.fault_plan is not None:
            from repro.resilience import FaultInjector

            injector = FaultInjector(self.config.fault_plan)
        self.fault_injector = injector
        wal_path = None
        if self.config.state_dir:
            os.makedirs(self.config.state_dir, exist_ok=True)
            wal_path = os.path.join(self.config.state_dir, "jobs.wal")
        self.store = JobStore(
            wal_path=wal_path,
            backoff_base_s=self.config.backoff_base_s,
            backoff_cap_s=self.config.backoff_cap_s,
            fault_injector=injector,
        )
        self.pool = WorkerPool(
            self.store,
            workers=self.config.workers,
            artifact_dir=self.config.artifact_dir,
            start_method=self.config.start_method,
            default_deadline_s=self.config.default_deadline_s,
            kill_grace_s=self.config.kill_grace_s,
        )
        if self.config.artifact_dir:
            os.makedirs(self.config.artifact_dir, exist_ok=True)
        #: Union of every completed job's worker registry, labelled
        #: ``{job=..., workload=...}`` (see collector_jobs).
        self.job_metrics = MetricsRegistry()
        #: Scrape-time collector failures, by collector name.
        self.collector_errors: Dict[str, int] = {}
        self._errors_lock = threading.Lock()
        #: ``(name, collect)`` of every scrape collector.
        self.collectors = COLLECTORS
        self._started_monotonic = time.monotonic()
        self.started_unix = time.time()
        self._accepting = True
        self.pool.on_done(self._fold_job)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ProfilingService":
        self.pool.start()
        return self

    def shutdown(self, drain: bool = True) -> bool:
        """Stop the service; with ``drain`` the backlog finishes first."""
        self._accepting = False
        settled = self.pool.stop(
            drain=drain, timeout=self.config.drain_timeout
        )
        self.store.close()
        return settled

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    # -- job API ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue a job for the pool.

        Raises :class:`ServiceError` once shutdown began, and
        :class:`~repro.errors.QueueFullError` when the backlog exceeds
        ``max_queue_depth`` — admission control keeps a flooded daemon
        answering fast 429s instead of silently building an unbounded
        queue.
        """
        if not self._accepting:
            raise ServiceError("service is shutting down; not accepting jobs")
        limit = self.config.max_queue_depth
        if limit is not None:
            depth = self.store.queue_depth()
            if depth >= limit:
                # A coarse hint: half a typical job per queued entry,
                # bounded so clients never sleep for minutes on it.
                retry_after = min(30.0, max(1.0, 0.5 * depth))
                raise QueueFullError(
                    f"queue is full ({depth} queued >= limit {limit}); "
                    f"retry in ~{retry_after:g}s",
                    retry_after_s=retry_after,
                )
        return self.store.submit(spec)

    def cancel(self, job_id: str) -> JobRecord:
        return self.store.request_cancel(job_id)

    def _fold_job(self, record: JobRecord) -> None:
        result = record.result
        if result is None or result.metrics is None:
            return
        self.job_metrics.merge(
            result.metrics,
            extra_labels={
                "job": record.id,
                "workload": record.spec.display_name,
            },
        )

    # -- observability surfaces ---------------------------------------------

    def scrape(self) -> str:
        """The ``/metrics`` Prometheus exposition.

        A fresh registry per scrape; every collector writes into it,
        failures isolated and counted.
        """
        registry = MetricsRegistry()
        for name, collect in self.collectors:
            try:
                collect(self, registry)
            except Exception:
                with self._errors_lock:
                    self.collector_errors[name] = (
                        self.collector_errors.get(name, 0) + 1
                    )
        return registry.to_prometheus()

    def chrome_trace(self) -> str:
        """Every job's self-spans as one timeline, one lane per job."""
        lanes: List[Tuple[str, List[Span]]] = []
        for record in self.store.list():
            if record.result is not None and record.result.spans:
                lanes.append(
                    (
                        f"{record.id}: {record.spec.display_name}",
                        record.result.spans,
                    )
                )
        return lane_trace_json(lanes)

    def status(self) -> Dict:
        """The JSON ``/status`` document."""
        return {
            "service": "repro continuous profiling",
            "accepting": self._accepting,
            "uptime_seconds": self.uptime_seconds,
            "started_unix": self.started_unix,
            "workers": self.pool.size,
            "busy_workers": self.pool.busy_workers,
            "artifact_dir": self.pool.artifact_dir,
            "jobs": self.store.counts(),
            "supervision": self.pool.counters,
            "max_queue_depth": self.config.max_queue_depth,
            "default_deadline_s": self.config.default_deadline_s,
            "durable": self.store.wal is not None,
            "recovery": {
                "recovered_jobs": self.store.recovered_jobs,
                "requeued": self.store.requeued_on_recovery,
                "failed": self.store.failed_on_recovery,
                "wal_torn_on_load": self.store.wal_torn_on_load,
            },
            "collectors": [{"name": name} for name, _ in self.collectors],
            "collector_errors": dict(self.collector_errors),
        }
