"""The collectors behind the scrape endpoint.

Each collector is a ``collect(service, registry)`` function the service
calls once per ``GET /metrics`` scrape.  ``service`` is the live
:class:`~repro.service.service.ProfilingService` (job store, pool,
merged per-job metrics) and ``registry`` is the fresh per-scrape
:class:`~repro.obs.MetricsRegistry` whose Prometheus exposition becomes
the response.  A collector that raises during a scrape is isolated: the
error is counted (``repro_service_collector_errors_total``) and the
remaining collectors still run.
"""

from repro.service.collectors import (
    collector_jobs,
    collector_resilience,
    collector_service,
)

#: ``(name, collect)`` of every collector, in scrape order.
COLLECTORS = (
    ("jobs", collector_jobs.collect),
    ("resilience", collector_resilience.collect),
    ("service", collector_service.collect),
)
