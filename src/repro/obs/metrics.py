"""Metric primitives and the registry (self-telemetry, half one).

Counters, gauges, and fixed-bucket histograms for the profiler's *own*
pipeline, in the collector-registry shape GPU telemetry tools such as
Omnistat use: instruments register themselves by name, the registry
owns exposition.  Two export formats:

- :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples), scrapable or
  diffable in CI;
- :meth:`MetricsRegistry.to_json` — a structured dump for programmatic
  consumers (the ``python -m repro stats --format json`` surface).

Metric names follow the Prometheus convention:
``repro_<stage>_<what>[_total|_seconds|_bytes]``, where ``<stage>`` is
the pipeline layer (``runtime``, ``collector``, ``analyzer``,
``flowgraph``, ``offline``, ``tool``).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidValueError
from repro.utils.stats import percentile

#: Default histogram buckets for span/stage durations (seconds).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class Metric:
    """Base class: a named instrument with optional label dimensions.

    A labelled metric is a family; :meth:`labels` returns (creating on
    first use) the child holding the actual series for one label-value
    combination.  Unlabelled metrics are their own single child.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], "Metric"] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, object]:
        # Locks are not picklable; worker processes ship metric state
        # back to the service across a pipe, so drop them here and
        # recreate on unpickle.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def labels(self, **labelvalues: object) -> "Metric":
        """Child instrument for one label-value combination."""
        if not self.labelnames:
            raise InvalidValueError(f"metric {self.name!r} has no labels")
        if set(labelvalues) != set(self.labelnames):
            raise InvalidValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help)
                self._copy_config(child)
                self._children[key] = child
        return child

    def _copy_config(self, child: "Metric") -> None:
        """Propagate subclass configuration (e.g. buckets) to children."""

    def _samples(self) -> List[Tuple[str, str, float]]:
        """(suffix, label-string, value) rows for exposition."""
        raise NotImplementedError

    def samples(self) -> List[Tuple[str, str, float]]:
        """All exposition rows: own series or one row-set per child."""
        if not self.labelnames:
            return self._samples()
        with self._lock:
            children = sorted(self._children.items())
        rows: List[Tuple[str, str, float]] = []
        for key, child in children:
            label_str = _format_labels(self.labelnames, key)
            for suffix, inner_labels, value in child._samples():
                if inner_labels:
                    merged = label_str[:-1] + "," + inner_labels[1:]
                else:
                    merged = label_str
                rows.append((suffix, merged, value))
        return rows

    def _merge_from(self, other: "Metric") -> None:
        """Fold another instrument's state into this one (same kind)."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (events, bytes, records)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise InvalidValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def _samples(self) -> List[Tuple[str, str, float]]:
        return [("", "", self.value)]

    def _merge_from(self, other: "Metric") -> None:
        with self._lock:
            self.value += other.value


class Gauge(Metric):
    """Point-in-time level (tracked objects, live digests, buffer fill)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def _samples(self) -> List[Tuple[str, str, float]]:
        return [("", "", self.value)]

    def _merge_from(self, other: "Metric") -> None:
        # A gauge is a point-in-time level: the merged-in side wins.
        self.value = other.value


class Histogram(Metric):
    """Fixed-bucket histogram (durations, batch sizes).

    Buckets are cumulative upper bounds, Prometheus-style; an implicit
    ``+Inf`` bucket always exists.  Raw observations are retained so
    summaries can quote exact percentiles (via
    :func:`repro.utils.stats.percentile`) — the series stays bounded
    because self-telemetry only runs while explicitly enabled.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.buckets: Tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
        self._counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._observations: List[float] = []

    def configure_buckets(self, buckets: Sequence[float]) -> "Histogram":
        """Replace the default bucket bounds (must be sorted, non-empty)."""
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise InvalidValueError(
                f"histogram {self.name!r} buckets must be sorted and non-empty"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        return self

    def _copy_config(self, child: "Metric") -> None:
        child.configure_buckets(self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._observe_locked(value)

    def _observe_locked(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self._observations.append(float(value))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def quantile(self, p: float) -> float:
        """Exact ``p``-th percentile over the retained observations."""
        return percentile(self._observations, p)

    def _samples(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            counts = list(self._counts)
            total = self.count
            acc = self.sum
        rows: List[Tuple[str, str, float]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            rows.append(("_bucket", f'{{le="{bound:g}"}}', float(cumulative)))
        rows.append(("_bucket", '{le="+Inf"}', float(total)))
        rows.append(("_sum", "", acc))
        rows.append(("_count", "", float(total)))
        return rows

    def _merge_from(self, other: "Metric") -> None:
        # Raw observations are retained, so merging is exact re-observation;
        # an untouched target first adopts the source's bucket bounds.
        with self._lock:
            if self.count == 0 and not any(self._counts):
                self.configure_buckets(other.buckets)
            for value in other._observations:
                self._observe_locked(value)


class MetricsRegistry:
    """Owns every instrument; get-or-create by name, export in bulk.

    Registration, child creation, and exposition snapshots are
    thread-safe: a service thread can scrape :meth:`to_prometheus`
    while worker threads are still creating and updating instruments.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.RLock()

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def _get_or_create(
        self,
        cls,
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labelnames)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise InvalidValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        if labelnames and tuple(labelnames) != metric.labelnames:
            raise InvalidValueError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get-or-create a counter."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get-or-create a gauge."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get-or-create a histogram (``buckets`` applies on creation)."""
        created = name not in self._metrics
        metric = self._get_or_create(Histogram, name, help, labelnames)
        if created and buckets is not None:
            metric.configure_buckets(buckets)
        return metric

    def get(self, name: str) -> Optional[Metric]:
        """The registered metric, if any."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        for name in self.names():
            metric = self._metrics.get(name)
            if metric is not None:
                yield metric

    def clear(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self._metrics.clear()

    def merge(
        self,
        other: "MetricsRegistry",
        extra_labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Fold another registry's instruments into this one.

        Every metric of ``other`` is get-or-created here under the same
        name and kind; counters add, gauges take the merged-in value,
        histograms re-observe the source's retained observations (so
        bucket counts, sums, and exact quantiles stay correct).

        ``extra_labels`` prepends label dimensions to every merged
        series — the continuous-profiling service uses this to fold
        each worker's per-job registry into the scrape output as
        ``{job="...", workload="..."}``-labelled series.  A name
        already registered here with an incompatible kind or label set
        raises :class:`~repro.errors.InvalidValueError`.
        """
        extra = dict(extra_labels or {})
        extra_names = tuple(extra)
        extra_values = {name: str(value) for name, value in extra.items()}
        for metric in other:
            labelnames = extra_names + metric.labelnames
            target = self._get_or_create(
                type(metric), metric.name, metric.help, labelnames
            )
            if not target.help and metric.help:
                target.help = metric.help
            if metric.labelnames:
                with metric._lock:
                    children = list(metric._children.items())
                for key, child in children:
                    values = dict(extra_values)
                    values.update(zip(metric.labelnames, key))
                    target.labels(**values)._merge_from(child)
            elif labelnames:
                target.labels(**extra_values)._merge_from(metric)
            else:
                target._merge_from(metric)

    # -- exposition --------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for suffix, label_str, value in metric.samples():
                rendered = f"{value:g}"
                lines.append(f"{metric.name}{suffix}{label_str} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        """Structured JSON dump (name -> kind/help/samples)."""
        payload = {}
        for metric in self:
            payload[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": [
                    {"suffix": suffix, "labels": label_str, "value": value}
                    for suffix, label_str, value in metric.samples()
                ],
            }
        return json.dumps(payload, indent=1, sort_keys=True)
