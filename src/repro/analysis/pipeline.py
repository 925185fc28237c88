"""The analysis pipeline every profile goes through.

Paper Section 4: a data collector intercepts the run's API events and
feeds an online analyzer, and an offline analyzer finishes the profile
postmortem.  :func:`analyze` wires that pipeline once, for any event
source on the :class:`~repro.gpu.runtime.RuntimeListener` bus — a live
:class:`~repro.gpu.runtime.GpuRuntime` or a
:class:`~repro.trace_io.TraceReplayer` — so live profiles, serial
replays and sharded-replay workers share one copy of the wiring, the
abort handling and the stage spans.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro.obs as telemetry
from repro.analysis.offline import OfflineAnalyzer
from repro.analysis.online import OnlineAnalyzer
from repro.analysis.profile import ValueProfile
from repro.collector.collector import DataCollector
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import KernelLaunchEvent, RuntimeListener
from repro.patterns.base import PatternHit
from repro.trace_io.replayer import TraceReplayer


class KernelRoster(RuntimeListener):
    """Side listener remembering every launched kernel object, so the
    offline analyzer can reach their line maps and binaries."""

    def __init__(self):
        self.kernels: Dict[str, Kernel] = {}

    def on_api_end(self, event) -> None:
        """Remember each launched kernel object by name."""
        if isinstance(event, KernelLaunchEvent):
            self.kernels.setdefault(event.kernel.name, event.kernel)


def analyze(
    config,
    source,
    drive: Callable[[DataCollector], None],
    workload: str = "",
    platform: str = "",
    health=None,
    online: Optional[OnlineAnalyzer] = None,
    annotate: bool = True,
) -> Tuple[ValueProfile, DataCollector, List[PatternHit]]:
    """Run ``drive`` with the collector/analyzer stack on ``source``.

    Builds the :class:`DataCollector` + online analyzer pair from
    ``config`` (a :class:`~repro.tool.config.ToolConfig`; ``online``
    overrides the analyzer), subscribes it and a kernel roster to
    ``source``, and calls ``drive(collector)`` to play the events inside
    a ``tool.profile`` (live) or ``tool.replay`` span.  With a
    ``health`` report an exception from ``drive`` aborts the run into
    the report instead of propagating; the profile covers the prefix
    that executed.  The offline pass follows (:func:`finish_offline`);
    ``annotate=False`` leaves its hits out of the profile and skips
    source annotation, for callers that merge them themselves.

    Returns ``(profile, collector, offline_hits)``.
    """
    online = online if online is not None else OnlineAnalyzer(config.patterns)
    collector = DataCollector(
        online,
        coarse=config.coarse,
        fine=config.fine,
        sampling=config.sampling,
        buffer_bytes=config.buffer_bytes,
        copy_policy=config.copy_policy,
        health=health,
        memory_budget_bytes=config.memory_budget_bytes,
    )
    replay = isinstance(source, TraceReplayer)
    roster = KernelRoster()
    collector.attach(source)
    source.subscribe(roster)
    span = (
        telemetry.tracer().begin(
            "tool.replay" if replay else "tool.profile", workload=workload
        )
        if telemetry.ENABLED
        else None
    )
    try:
        drive(collector)
    except Exception as exc:
        if health is None:
            raise
        # Resilient mode: the workload died (its own bug, a genuine
        # OOM, or an injected fault that escaped to workload code) or
        # the recording could not be replayed further.
        health.workload_aborted = True
        health.abort_reason = f"{type(exc).__name__}: {exc}"
        health.note(
            f"{'replay' if replay else 'workload'} aborted: "
            f"{health.abort_reason}"
        )
    finally:
        if span is not None:
            span.end()
        source.unsubscribe(roster)
        collector.detach()
    profile = online.finish(
        counters=collector.counters, workload=workload, platform=platform
    )
    offline_hits = finish_offline(
        config,
        profile,
        untyped=online.pending_untyped,
        kernels=roster.kernels.values() if annotate else None,
        health=health,
    )
    return profile, collector, offline_hits


def finish_offline(
    config,
    profile: ValueProfile,
    untyped=None,
    kernels: Optional[Iterable[Kernel]] = None,
    health=None,
) -> List[PatternHit]:
    """The offline analyzer's pass, inside a ``tool.offline`` span.

    Resolves the ``untyped`` groups the online analyzer deferred (none
    given: no type-slicing pass) and returns their hits.  Given
    ``kernels`` (line maps and binaries) it also appends those hits to
    the profile and annotates its sources.
    """
    span = (
        telemetry.tracer().begin(
            "tool.offline", workload=profile.workload_name
        )
        if telemetry.ENABLED
        else None
    )
    offline = OfflineAnalyzer(config.patterns, health=health)
    hits = [] if untyped is None else offline.analyze_untyped(untyped)
    if kernels is not None:
        profile.fine_hits.extend(hits)
        offline.annotate(profile, kernels=list(kernels))
    if span is not None:
        span.end()
    return hits
