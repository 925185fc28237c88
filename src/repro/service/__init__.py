"""repro.service — the continuous-profiling daemon (fleet mode).

The paper runs ValueExpert as a one-shot tool; this package runs it as
a long-lived service: clients submit profiling jobs (a registered
workload or a recorded ``.vetrace``, plus :class:`~repro.tool.config.
ToolConfig` options) over a local HTTP API, a bounded pool of worker
*processes* executes them concurrently (each job crash-isolated — a
dying worker fails its job, never the daemon), and a job store tracks
``queued -> running -> done/failed/cancelled`` with poll/list/cancel.

Fleet-grade supervision: jobs carry per-job deadlines (a hung worker
is escalated SIGTERM -> SIGKILL and the attempt fails as ``timed
out``), failed attempts retry with exponential backoff + decorrelated
jitter up to ``max_retries``, submissions beyond ``max_queue_depth``
get HTTP 429 with ``Retry-After``, and with ``--state-dir`` the store
appends every mutation to a torn-tail-tolerant JSONL write-ahead log
(:mod:`repro.service.wal`) so a SIGKILLed daemon restarts with every
job recovered — terminals intact, in-flight requeued.

Observability is the headline: ``GET /metrics`` is a Prometheus scrape
endpoint fed by a fixed list of collectors
(:data:`repro.service.collectors.COLLECTORS`), ``GET /healthz`` and
``GET /status`` give liveness and a JSON digest, and ``GET /trace``
renders every job's self-spans as one Chrome-trace timeline with one
process lane per job.  Each worker runs the re-entrant
:class:`~repro.tool.valueexpert.ValueExpert` facade with a private
:class:`~repro.obs.MetricsRegistry`/:class:`~repro.obs.SpanTracer`;
on completion the service folds the worker registry into its own via
:meth:`~repro.obs.MetricsRegistry.merge` with ``{job=..., workload=...}``
labels, so the scrape output carries per-job pipeline series.

Start it with ``python -m repro serve`` (see ``docs/service.md``).
"""

from __future__ import annotations

from repro.service.jobs import JobRecord, JobResult, JobSpec, JobState, JobStore
from repro.service.pool import WorkerPool
from repro.service.service import ProfilingService, ServiceConfig
from repro.service.http import make_server, serve_forever
from repro.service.wal import WriteAheadLog, load_wal

__all__ = [
    "JobRecord",
    "JobResult",
    "JobSpec",
    "JobState",
    "JobStore",
    "ProfilingService",
    "ServiceConfig",
    "WorkerPool",
    "WriteAheadLog",
    "load_wal",
    "make_server",
    "serve_forever",
]
