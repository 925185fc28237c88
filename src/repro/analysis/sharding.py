"""Exact range replays, and sharded parallel trace analysis.

Every replayed profile is made of exact range replays
(:func:`replay_range`): the whole recording is the one range
``[0, end)``, an ``--events A:B`` replay is ``[A, B)``, and a sharded
replay partitions its range into contiguous ranges, gives one worker
process per range, and merges the per-range results.  The contract is
exact — a range's pattern hits are the serial replay's hits for its
events, and a sharded profile's pattern hits and flow graph are
byte-identical to the single range's.

The trick is the warm-up.  Almost all analyzer state is *cumulative*
(last writers, snapshot digests, reported duplicate groups, sampler
phase), so a range cannot start mid-stream cold.  Instead each range
replays its **prefix** ``[0, start)`` in *passive* mode:

- the collector runs its normal pipeline — interval sweep, mirror
  refresh, incremental digests, sampler decisions — because mirror and
  digest state must match the serial run bit for bit, but skips
  building fine views (:attr:`DataCollector.analysis_active`);
- a :class:`ShardOnlineAnalyzer` tracks, per live object, the vertex
  *identities* (alloc label/context, last writer's kind/name/context)
  the flow builder would hold, and runs the full duplicate-digest
  bookkeeping — marking groups an earlier range already reported so
  this range will not re-report them — while emitting no hits, no
  vertices, no edges, and running no detectors.

At ``start`` the range :meth:`~ShardOnlineAnalyzer.activate`\\ s: the
flow builder is seeded with vertices for every tracked identity (no
invocation counts — those belong to the ranges that observed the
invocations) and ``[start, stop)`` replays with full analysis.  Merging
(:func:`merge_shard_results`) then joins the local graphs on vertex
identity (:mod:`repro.flowgraph.merge`), remaps every hit's ``v<id>:``
api reference, deduplicates hits exactly as the serial analyzer's
``(pattern, object, api ref)`` index does, and sums the per-range
counter deltas.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.obs as telemetry
from repro.analysis.online import OnlineAnalyzer
from repro.analysis.pipeline import analyze
from repro.analysis.profile import ObjectInfo, ValueProfile
from repro.collector.collector import CollectionCounters, DataCollector
from repro.errors import AnalysisError
from repro.flowgraph.graph import ValueFlowGraph, VertexKind
from repro.flowgraph.merge import merge_graphs
from repro.patterns.base import PatternHit
from repro.trace_io.replayer import TraceReplayer


# --------------------------------------------------------------------------
# Shard planning
# --------------------------------------------------------------------------


#: Measured cost of replaying one event passively (prefix warm-up)
#: relative to replaying it with full analysis.  The tool plans shard
#: boundaries with this skew: a later shard pays this fraction of every
#: earlier event's cost before its own range starts, so giving later
#: shards smaller active ranges shortens the critical path.  The ratio
#: moves whenever either side gets faster, so re-measure it after any
#: change to the analysis or the prefix path: on the many-small-objects
#: workload of ``benchmarks/test_shard_scaling.py``, the per-event
#: minimum over repeated passive and active replays puts it between
#: 0.24 and 0.28.  The value sits at the top of that range: an
#: overestimate leaves shard 0, which has no prefix, the slowest shard,
#: while an underestimate overloads the last shards, whose prefixes are
#: the longest.
PREFIX_COST_RATIO = 0.28


def plan_shards(
    weights: Sequence[int], shards: int, prefix_cost: float = 0.0
) -> List[Tuple[int, int]]:
    """Partition events ``[0, len(weights))`` into contiguous ranges.

    ``weights`` are per-event costs (frame bytes work well).
    ``prefix_cost`` models the warm-up a shard performs before its
    range — replaying event ``i`` passively costs ``prefix_cost *
    weights[i]`` — and the boundaries minimise the slowest shard's
    total (prefix + active) cost; with the default ``prefix_cost=0``
    that balances the shards' own weight.  Returns at most ``shards``
    non-empty ``(start, stop)`` ranges covering every event.
    """
    n = len(weights)
    if n == 0:
        return []
    shards = max(1, min(int(shards), n))
    if sum(weights) <= 0:
        weights = [1] * n
    weights = [max(int(weight), 0) for weight in weights]
    ratio = max(float(prefix_cost), 0.0)
    return _plan_with_prefix_cost(weights, shards, ratio)


def _split_within(
    weights: Sequence[int], shards: int, ratio: float, capacity: float
) -> Optional[List[Tuple[int, int]]]:
    """Greedy split where shard ``i`` may spend ``capacity`` total cost:
    ``ratio`` per unit of prefix weight plus its own active weight.
    Returns None when more than ``shards`` ranges would be needed.
    """
    n = len(weights)
    ranges: List[Tuple[int, int]] = []
    start = 0
    consumed = 0.0
    while start < n:
        if len(ranges) == shards:
            return None
        budget = capacity - ratio * consumed
        acc = 0.0
        stop = start
        while stop < n:
            weight = weights[stop]
            if stop > start and acc + weight > budget:
                break
            acc += weight
            stop += 1
        ranges.append((start, stop))
        consumed += acc
        start = stop
    return ranges


def _plan_with_prefix_cost(
    weights: List[int], shards: int, ratio: float
) -> List[Tuple[int, int]]:
    """Minimise the max shard cost under the prefix-replay cost model
    via binary search on the per-shard cost capacity."""
    total = float(sum(weights))
    lo, hi = 0.0, total
    for _ in range(48):
        mid = (lo + hi) / 2
        if _split_within(weights, shards, ratio, mid) is None:
            lo = mid
        else:
            hi = mid
    ranges = _split_within(weights, shards, ratio, hi)
    assert ranges is not None  # hi = total always fits in one range
    # The minimal capacity occasionally packs into fewer ranges than
    # requested; split the widest ranges by event count so callers get
    # the shard count they asked for whenever enough events exist.
    while len(ranges) < shards and any(b - a > 1 for a, b in ranges):
        index = max(range(len(ranges)), key=lambda i: ranges[i][1] - ranges[i][0])
        a, b = ranges[index]
        mid = (a + b) // 2
        ranges[index : index + 1] = [(a, mid), (mid, b)]
    return ranges


# --------------------------------------------------------------------------
# The shard-aware online analyzer
# --------------------------------------------------------------------------


class ShardOnlineAnalyzer(OnlineAnalyzer):
    """Online analyzer that can warm up passively over a prefix.

    While :attr:`active` is False, collector callbacks maintain only
    the state a later active phase depends on (see the module
    docstring); :meth:`activate` seeds the flow builder from that state
    and switches every callback back to the stock behaviour.
    """

    def __init__(self, config=None, active: bool = True):
        super().__init__(config)
        self.active = active
        #: alloc_id -> (label, alloc call path, device): the ALLOC
        #: vertex identity.
        self._alloc_identity: Dict[int, Tuple[str, object, int]] = {}
        #: alloc_id -> (kind, name, call path, device) of the last writer.
        self._writer_identity: Dict[int, Tuple[VertexKind, str, object, int]] = {}

    # -- passive collector hooks ---------------------------------------

    def on_malloc(self, obj) -> None:
        if self.active:
            super().on_malloc(obj)
            return
        identity = (obj.label, obj.alloc_context, obj.device)
        self._alloc_identity[obj.alloc_id] = identity
        self._writer_identity[obj.alloc_id] = (VertexKind.ALLOC,) + identity

    def on_free(self, obj) -> None:
        if self.active:
            super().on_free(obj)
            return
        self._alloc_identity.pop(obj.alloc_id, None)
        self._writer_identity.pop(obj.alloc_id, None)
        self._forget_duplicates(obj)

    def on_memory_api(self, obs) -> None:
        if self.active:
            super().on_memory_api(obs)
            return
        kind = VertexKind.MEMSET if obs.api == "memset" else VertexKind.MEMCPY
        identity = (kind, obs.name, obs.call_path, obs.device)
        for write in obs.writes:
            self._writer_identity[write.obj.alloc_id] = identity
        self._duplicate_analysis(obs.writes, "", self._host_entry(obs))

    def on_launch(self, obs) -> None:
        if self.active:
            super().on_launch(obs)
            return
        identity = (VertexKind.KERNEL, obs.kernel_name, obs.call_path, obs.device)
        for write in obs.writes:
            self._writer_identity[write.obj.alloc_id] = identity
        if obs.quarantined:
            # Mirrors the active path: a quarantined launch still moves
            # the last writer but contributes nothing to analysis.
            return
        self._duplicate_analysis(obs.writes, "", None)

    def _add_hit(self, hit, fine) -> None:
        if not self.active:
            # Passive prefix: the group bookkeeping inside
            # _duplicate_analysis must run (so the active range does not
            # re-report duplicates another shard owns), but its hits
            # belong to the shard that owns the prefix event.
            return
        super()._add_hit(hit, fine)

    # -- activation ------------------------------------------------------

    def activate(self) -> None:
        """Seed the flow builder from prefix state and go active.

        Seeded vertices carry no invocations or time — the shards that
        observed those invocations account for them — so merged vertex
        measurements sum to exactly the serial values.
        """
        if self.active:
            return
        self.active = True
        graph = self.flow.graph
        for alloc_id, identity in self._alloc_identity.items():
            alloc_vertex = graph.merge_vertex(VertexKind.ALLOC, *identity)
            self.flow._alloc_vertex[alloc_id] = alloc_vertex.vid
            writer = self._writer_identity.get(
                alloc_id, (VertexKind.ALLOC,) + identity
            )
            writer_vertex = graph.merge_vertex(*writer)
            self.flow._last_writer[alloc_id] = writer_vertex.vid


# --------------------------------------------------------------------------
# Worker
# --------------------------------------------------------------------------


@dataclass
class ShardResult:
    """Everything one range replay hands to the merge."""

    index: int
    start: int
    #: the event the range stopped at (the end of a shorter recording).
    stop: int
    #: events the shard analyzed actively (its own range).
    events: int
    graph: ValueFlowGraph = field(default_factory=ValueFlowGraph)
    coarse_hits: List[PatternHit] = field(default_factory=list)
    fine_hits: List[PatternHit] = field(default_factory=list)
    #: fine hits the worker's offline pass resolved from untyped groups.
    offline_hits: List[PatternHit] = field(default_factory=list)
    objects: List[ObjectInfo] = field(default_factory=list)
    #: counter deltas attributable to the active range.
    counters: CollectionCounters = field(default_factory=CollectionCounters)
    #: total wall time (prefix warm-up + active range).
    elapsed_s: float = 0.0
    #: wall time of the active range alone.
    active_s: float = 0.0


def run_shard(
    trace_path: str,
    index: int,
    start: int,
    stop: Optional[int],
    config,
    salvage: bool = False,
) -> ShardResult:
    """Worker entry: :func:`replay_range` over a trace it opens itself.

    Runs in a worker process.  Telemetry is off while it replays:
    worker-side spans would land in a registry nobody reads (the fork's
    copy), and the parent's spans cover the fan-out.
    """
    telemetry_was_enabled = telemetry.ENABLED
    if telemetry_was_enabled:
        telemetry.disable()
    try:
        with TraceReplayer(trace_path, salvage=salvage) as replayer:
            return replay_range(replayer, config, index, start, stop)[0]
    finally:
        if telemetry_was_enabled:
            telemetry.enable()


def replay_range(
    replayer: TraceReplayer,
    config,
    index: int,
    start: int,
    stop: Optional[int],
    health=None,
    workload: str = "",
) -> Tuple[ShardResult, DataCollector]:
    """Analyze events ``[start, stop)`` of a fresh replayer exactly.

    ``[0, start)`` replays passively first (see the module docstring);
    a range that starts past the end of the recording analyzes nothing.
    ``stop=None`` runs to the end of the recording; the result's
    ``stop`` is the event the range actually stopped at.  With a
    ``health`` report a replay error aborts into the report instead of
    raising.  ``workload`` labels the profile and its spans (default:
    the recording's workload).  Returns the result and the collector
    that observed it.
    """
    began = time.perf_counter()
    online = ShardOnlineAnalyzer(config.patterns, active=(start == 0))
    watermark = CollectionCounters()
    active_began = began

    def drive(collector: DataCollector) -> None:
        nonlocal watermark, active_began
        replay_began = time.perf_counter()
        if start > 0:
            collector.analysis_active = False
            replayer.replay(stop=start)
            watermark = CollectionCounters(**vars(collector.counters))
            active_began = time.perf_counter()
            if replayer.events_replayed == start:
                online.activate()
                collector.analysis_active = True
        replayer.replay(stop=stop)
        if telemetry.ENABLED:
            elapsed = time.perf_counter() - replay_began
            telemetry.histogram(
                "repro_trace_replay_seconds",
                "Wall time of range replays, passive prefix included.",
            ).observe(elapsed)
            if elapsed > 0:
                telemetry.gauge(
                    "repro_trace_replay_events_per_second",
                    "Throughput of the most recent range replay, passive "
                    "prefix included.",
                ).set(replayer.events_replayed / elapsed)

    profile, collector, offline_hits = analyze(
        config,
        replayer,
        drive,
        workload=workload or replayer.header.get("workload", ""),
        platform=replayer.header.get("platform", ""),
        health=health,
        online=online,
        annotate=False,
    )
    finished = time.perf_counter()
    delta = CollectionCounters(
        **{
            name: value - getattr(watermark, name)
            for name, value in vars(profile.counters).items()
        }
    )
    result = ShardResult(
        index=index,
        start=start,
        stop=replayer.events_replayed,
        events=max(replayer.events_replayed - start, 0),
        graph=profile.graph,
        coarse_hits=profile.coarse_hits,
        fine_hits=profile.fine_hits,
        offline_hits=offline_hits,
        objects=profile.objects,
        counters=delta,
        elapsed_s=finished - began,
        active_s=finished - active_began,
    )
    return result, collector


# --------------------------------------------------------------------------
# Parallel driver + merge
# --------------------------------------------------------------------------


def run_shards_parallel(
    trace_path: str,
    ranges: Sequence[Tuple[int, Optional[int]]],
    config,
    salvage: bool = False,
) -> List[ShardResult]:
    """Run one worker process per shard range; returns results in order."""
    payloads = [
        (trace_path, index, start, stop, config, salvage)
        for index, (start, stop) in enumerate(ranges)
    ]
    import multiprocessing

    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    context = multiprocessing.get_context(method)
    processes = min(len(payloads), max(os.cpu_count() or 1, 1))
    with context.Pool(processes=processes) as pool:
        results = pool.starmap(run_shard, payloads)
    return results


def _remap_api_ref(api_ref: str, vid_map: Dict[int, int]) -> str:
    """Rewrite a ``v<local>:<name>`` reference to the merged vertex id."""
    if not api_ref.startswith("v"):
        return api_ref
    head, sep, tail = api_ref[1:].partition(":")
    if not sep or not head.isdigit():
        return api_ref
    local_vid = int(head)
    if local_vid not in vid_map:
        raise AnalysisError(
            f"shard hit references unknown local vertex {local_vid}"
        )
    return f"v{vid_map[local_vid]}:{tail}"


def merge_shard_results(results: Sequence[ShardResult]) -> ValueProfile:
    """Fold per-shard results into one profile (graph, hits, counters).

    Hits are deduplicated on ``(pattern, object, api ref)`` with
    occurrence summing — the serial analyzer's exact index — after
    their api references are remapped to merged vertex ids.  Shards are
    folded in event order, so first-occurrence order (and therefore
    serialization order) matches the serial run.
    """
    graph, vid_maps = merge_graphs([result.graph for result in results])
    profile = ValueProfile(graph=graph)
    hit_index: Dict[Tuple, PatternHit] = {}

    def fold(hits: List[PatternHit], vid_map: Dict[int, int], fine: bool):
        for hit in hits:
            hit.api_ref = _remap_api_ref(hit.api_ref, vid_map)
            key = (hit.pattern, hit.object_label, hit.api_ref)
            existing = hit_index.get(key)
            if existing is not None:
                existing.metrics["occurrences"] = existing.metrics.get(
                    "occurrences", 1
                ) + hit.metrics.get("occurrences", 1)
                continue
            hit_index[key] = hit
            (profile.fine_hits if fine else profile.coarse_hits).append(hit)

    for result, vid_map in zip(results, vid_maps):
        fold(result.coarse_hits, vid_map, fine=False)
    for result, vid_map in zip(results, vid_maps):
        fold(result.fine_hits, vid_map, fine=True)
    # Offline-resolved hits append without deduplication, exactly as
    # the serial facade appends analyze_untyped's output.
    for result, vid_map in zip(results, vid_maps):
        for hit in result.offline_hits:
            hit.api_ref = _remap_api_ref(hit.api_ref, vid_map)
            profile.fine_hits.append(hit)
    for result in results:
        profile.objects.extend(result.objects)
    totals = profile.counters
    for result in results:
        for name, value in vars(result.counters).items():
            setattr(totals, name, getattr(totals, name) + value)
    return profile
