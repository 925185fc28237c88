"""repro.obs — self-telemetry for the profiler itself.

The reproduction is a profiler, and this package is the profiler *of*
the profiler: a process-wide :class:`~repro.obs.metrics.MetricsRegistry`
(counters / gauges / histograms with Prometheus-text and JSON
exposition) and a :class:`~repro.obs.spans.SpanTracer` (nested phase
timings, exportable to the Chrome-trace format the application trace
already uses), threaded through the runtime, collector, analyzers, and
flow-graph builder.

Telemetry is **off by default** and every instrumentation point is
guarded by the module-level :data:`ENABLED` flag::

    import repro.obs as telemetry

    if telemetry.ENABLED:
        with telemetry.span("collector.launch", kernel=name):
            ...

so the disabled hot path costs exactly one attribute load and branch
per site (guarded by ``benchmarks/test_obs_guard.py`` — the PR-1
launch-path speedup must not regress).  Do **not** ``from repro.obs
import ENABLED``: that copies the flag at import time and never sees
:func:`enable`.

Typical use::

    import repro.obs as telemetry

    telemetry.reset()
    telemetry.enable()
    ...  # run a profile
    telemetry.disable()
    print(telemetry.registry().to_prometheus())
    print(telemetry.tracer().to_json())

or the CLI: ``python -m repro stats <workload>`` and
``python -m repro trace <workload> --self``.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_SECONDS_BUCKETS,
)
from repro.obs.spans import Span, SpanTracer, SELF_PID, chrome_events_for_spans

#: Master switch.  Hot paths read this through the module object
#: (``telemetry.ENABLED``) so the disabled cost is one branch.
ENABLED = False

_registry = MetricsRegistry()
_tracer = SpanTracer()

#: enable()/disable() nest by reference count so concurrent scoped
#: profiling runs in one process do not switch each other off.
_enabled_depth = 0
_enabled_lock = threading.Lock()

_scopes = threading.local()


def _scope_stack() -> List[Tuple[MetricsRegistry, SpanTracer]]:
    stack = getattr(_scopes, "stack", None)
    if stack is None:
        stack = _scopes.stack = []
    return stack


def enable() -> None:
    """Turn self-telemetry on (keeps any previously recorded data)."""
    global ENABLED, _enabled_depth
    with _enabled_lock:
        _enabled_depth += 1
        ENABLED = True


def disable() -> None:
    """Turn self-telemetry off; recorded data stays readable.

    Enable/disable pairs nest: with two concurrent scoped runs enabled,
    the first ``disable()`` leaves telemetry on for the survivor.
    Unpaired calls clamp at zero, so "switch it off" still works.
    """
    global ENABLED, _enabled_depth
    with _enabled_lock:
        _enabled_depth = max(0, _enabled_depth - 1)
        ENABLED = _enabled_depth > 0


def reset() -> None:
    """Drop the current scope's recorded metrics and spans (flag
    state unchanged)."""
    registry().clear()
    tracer().clear()


def registry() -> MetricsRegistry:
    """The current scope's metrics registry (process-wide by default)."""
    stack = _scope_stack()
    return stack[-1][0] if stack else _registry


def tracer() -> SpanTracer:
    """The current scope's span tracer (process-wide by default)."""
    stack = _scope_stack()
    return stack[-1][1] if stack else _tracer


class scoped:
    """Route telemetry to private instruments within a ``with`` block.

    ::

        job_registry, job_tracer = MetricsRegistry(), SpanTracer()
        with telemetry.scoped(job_registry, job_tracer):
            ...  # every telemetry.counter()/span() lands in them

    The scope is **thread-local**: two threads each inside their own
    ``scoped`` block record to their own instruments with no
    cross-talk, which is what makes the :class:`~repro.tool.
    valueexpert.ValueExpert` facade re-entrant — concurrent jobs no
    longer share the module-global registry/tracer.  Omitted arguments
    get fresh instruments, readable from the ``.registry`` /
    ``.tracer`` attributes afterwards.  ``enable=True`` (default)
    also turns telemetry on for the block, refcounted against other
    concurrent scopes.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        enable: bool = True,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer()
        self._enable = enable

    def __enter__(self) -> "scoped":
        _scope_stack().append((self.registry, self.tracer))
        if self._enable:
            enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._enable:
            disable()
        stack = _scope_stack()
        if stack and stack[-1] == (self.registry, self.tracer):
            stack.pop()


def span(name: str, **attrs: object):
    """Context manager timing one phase on the current scope's tracer.

    Call sites must still guard with ``if telemetry.ENABLED:`` — the
    helper itself records unconditionally.
    """
    return tracer().span(name, **attrs)


def counter(name: str, help: str = "", labelnames=()) -> Counter:
    """Get-or-create a counter on the current scope's registry."""
    return registry().counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames=()) -> Gauge:
    """Get-or-create a gauge on the current scope's registry."""
    return registry().gauge(name, help, labelnames)


def histogram(name: str, help: str = "", labelnames=(), buckets=None) -> Histogram:
    """Get-or-create a histogram on the current scope's registry."""
    return registry().histogram(name, help, labelnames, buckets)


__all__ = [
    "ENABLED",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "SELF_PID",
    "DEFAULT_SECONDS_BUCKETS",
    "chrome_events_for_spans",
    "counter",
    "disable",
    "enable",
    "gauge",
    "histogram",
    "registry",
    "reset",
    "scoped",
    "span",
    "tracer",
]
