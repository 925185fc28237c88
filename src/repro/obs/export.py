"""Merged trace export: modelled application events + profiler self-spans.

One Chrome-trace JSON array holding both timelines — the application
stream on pid 0 (from :class:`repro.analysis.trace.TraceRecorder`,
modelled microseconds) and the profiler's own stages on pid 1 (wall
microseconds) — loadable as one file in ``chrome://tracing`` or
https://ui.perfetto.dev.  This is the ``python -m repro trace
--self`` output.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from repro.obs.spans import SELF_PID, Span, SpanTracer, chrome_events_for_spans

#: Metadata event naming the modelled-application process row.
_APP_PROCESS_META = {
    "name": "process_name",
    "ph": "M",
    "pid": 0,
    "tid": 0,
    "args": {"name": "modelled application"},
}


def merged_events(
    app_events: Optional[List[dict]],
    tracer: Optional[SpanTracer],
) -> List[dict]:
    """Combine application events and self-spans into one event list."""
    events: List[dict] = []
    if app_events:
        # A multi-device application stream names its own process rows
        # ("device 0", "device 1", ...); only the classic single-device
        # stream needs the generic pid-0 label prepended.
        already_named = any(
            event.get("ph") == "M"
            and event.get("name") == "process_name"
            and event.get("pid") == 0
            for event in app_events
        )
        if not already_named:
            events.append(dict(_APP_PROCESS_META))
        events.extend(app_events)
    if tracer is not None:
        events.extend(tracer.to_chrome_events())
    return events


def merged_trace_json(
    app_events: Optional[List[dict]],
    tracer: Optional[SpanTracer],
) -> str:
    """The merged timeline as a Chrome-trace JSON array string."""
    return json.dumps(merged_events(app_events, tracer), indent=1)


def lane_events(
    lanes: Sequence[Tuple[str, List[Span]]], base_pid: int = SELF_PID
) -> List[dict]:
    """One Chrome-trace lane per (label, spans) pair.

    Lane ``i`` gets pid ``base_pid + i`` (pid 0 stays reserved for the
    modelled application stream), so concurrent jobs' timelines render
    as separate process rows instead of interleaving on one.
    """
    events: List[dict] = []
    for index, (label, spans) in enumerate(lanes):
        events.extend(
            chrome_events_for_spans(spans, pid=base_pid + index, label=label)
        )
    return events


def lane_trace_json(
    lanes: Sequence[Tuple[str, List[Span]]], base_pid: int = SELF_PID
) -> str:
    """The multi-lane timeline as a Chrome-trace JSON array string."""
    return json.dumps(lane_events(lanes, base_pid=base_pid), indent=1)
