"""The online analyzer (paper Section 4, "Online Analyzer").

Consumes collector observations as execution proceeds and produces the
two outputs the paper names: "a profile with coarse- and fine-grained
value patterns, and a program-wide value flow graph".

Deduplication: kernels run many times; one (pattern, object, API
vertex) combination is kept as a single hit whose ``occurrences``
metric counts repetitions — the GUI scales node size by invocations,
not by hit multiplicity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

import repro.obs as telemetry
from repro.analysis.profile import ObjectInfo, ValueProfile
from repro.collector.collector import (
    LaunchObservation,
    MemoryApiObservation,
)
from repro.collector.objects import DataObject
from repro.flowgraph.builder import FlowGraphBuilder, ObjectAccess
from repro.flowgraph.graph import Vertex, VertexKind
from repro.patterns.base import (
    ObjectAccessView,
    Pattern,
    PatternConfig,
    PatternHit,
    SnapshotPair,
)
from repro.patterns.coarse import redundant_values_hit, unchanged_fraction
from repro.patterns.engine import PatternEngine
from repro.utils.hashing import snapshot_digest


class OnlineAnalyzer:
    """Builds the value flow graph and recognizes patterns on the fly."""

    def __init__(self, config: Optional[PatternConfig] = None):
        self.engine = PatternEngine(config)
        self.flow = FlowGraphBuilder()
        self.profile = ValueProfile(graph=self.flow.graph)
        #: hit dedup index: (pattern, object label, api ref) -> hit.
        self._hit_index: Dict[Tuple[Pattern, str, str], PatternHit] = {}
        #: current snapshot digest per object key ("dev:<id>"/"host:<label>").
        self._digests: Dict[str, str] = {}
        self._labels: Dict[str, str] = {}
        #: incremental reverse index digest -> keys sharing it; duplicate
        #: detection reads only the dirty keys' buckets per API instead
        #: of regrouping every tracked object.
        self._by_digest: Dict[str, Set[str]] = {}
        #: duplicate groups already reported (frozenset of keys).
        self._reported_groups: Set[frozenset] = set()
        #: untyped groups deferred to the offline analyzer.
        self.pending_untyped = []
        #: operator scope of the API currently being analyzed.
        self._current_operator: Tuple[str, ...] = ()

    # -- collector hooks -------------------------------------------------------

    def on_malloc(self, obj: DataObject) -> None:
        """Create the allocation vertex and the object record."""
        self.flow.on_malloc(
            obj.alloc_id, obj.label, obj.alloc_context, device=obj.device
        )
        site = None
        if obj.alloc_context is not None and len(obj.alloc_context):
            site = str(obj.alloc_context.leaf)
        self.profile.objects.append(
            ObjectInfo(
                alloc_id=obj.alloc_id,
                label=obj.label,
                size=obj.size,
                dtype=obj.dtype.name,
                alloc_site=site,
            )
        )

    def on_free(self, obj: DataObject) -> None:
        """Drop the object's flow, digest, label, and group state.

        Everything keyed by the object must go: a stale label or reverse
        -index entry would let a freed object resurface in (or suppress)
        a later duplicate-values group.
        """
        self.flow.on_free(obj.alloc_id)
        key = f"dev:{obj.alloc_id}"
        digest = self._digests.pop(key, None)
        if digest is not None:
            members = self._by_digest.get(digest)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._by_digest[digest]
        self._labels.pop(key, None)
        self._reported_groups = {
            group for group in self._reported_groups if key not in group
        }

    def on_memory_api(self, obs: MemoryApiObservation) -> None:
        """Flow edges + coarse/duplicate analysis for a memcpy/memset."""
        if telemetry.ENABLED:
            with telemetry.span("analyzer.memory_api", api=obs.name):
                self._on_memory_api(obs)
            return
        self._on_memory_api(obs)

    def _on_memory_api(self, obs: MemoryApiObservation) -> None:
        kind = VertexKind.MEMSET if obs.api == "memset" else VertexKind.MEMCPY
        fractions = self._unchanged_fractions(obs.writes)
        vertex = self._record_flow(
            kind,
            obs.name,
            obs.call_path,
            obs.writes,
            fractions,
            obs.reads,
            obs.time_s,
            host_source=obs.host_source,
            host_sink=obs.host_sink,
            annotation=obs.annotation,
            device=obs.device,
        )
        api_ref = self._api_ref(vertex)
        self._coarse_analysis(obs.writes, fractions, api_ref)
        host_extra = None
        if obs.host_array is not None:
            host_extra = (f"host:{obs.host_array.label}", obs.host_array.data)
        self._duplicate_analysis(obs.writes, api_ref, host_extra)

    def on_launch(self, obs: LaunchObservation) -> None:
        """Flow edges, coarse analysis, and fine views for a launch."""
        if telemetry.ENABLED:
            with telemetry.span(
                "analyzer.launch", kernel=obs.kernel_name
            ) as span:
                self._on_launch(obs)
            telemetry.histogram(
                "repro_analyzer_launch_seconds",
                "Wall time of the online analyzer per kernel launch.",
            ).observe(span.dur_s)
            return
        self._on_launch(obs)

    def _on_launch(self, obs: LaunchObservation) -> None:
        fractions = self._unchanged_fractions(obs.writes)
        vertex = self._record_flow(
            VertexKind.KERNEL,
            obs.kernel_name,
            obs.call_path,
            obs.writes,
            fractions,
            obs.reads,
            obs.time_s,
            annotation=obs.annotation,
            device=obs.device,
        )
        if obs.quarantined:
            # The launch stays in the flow graph (the timeline must not
            # lie about what executed), but its partial measurements are
            # excluded from every pattern analysis.
            return
        api_ref = self._api_ref(vertex)
        self._coarse_analysis(obs.writes, fractions, api_ref)
        self._duplicate_analysis(obs.writes, api_ref, None)
        fine_span = (
            telemetry.tracer().begin(
                "analyzer.fine", views=len(obs.fine_views)
            )
            if telemetry.ENABLED and obs.fine_views
            else None
        )
        for view in obs.fine_views:
            access_view = ObjectAccessView(
                object_label=view.obj.label,
                api_ref=api_ref,
                values=view.values,
                addresses=view.addresses,
                dtype=view.dtype,
                itemsize=view.obj.dtype.itemsize,
            )
            for hit in self.engine.analyze_view(access_view):
                self._add_hit(hit, fine=True)
        if fine_span is not None:
            fine_span.end()
            telemetry.counter(
                "repro_analyzer_fine_views_total",
                "Typed per-object value views run through the detectors.",
            ).inc(len(obs.fine_views))
        for group in obs.untyped_groups:
            self.pending_untyped.append((group, api_ref))

    # -- analysis steps -----------------------------------------------------------

    @staticmethod
    def _unchanged_fractions(writes) -> List[float]:
        """Each written object's unchanged fraction (Definition 3.1).

        Computed once per write: the flow-graph edge and the
        redundant-values check both read it.  It is coarse work, so it
        is timed under ``analyzer.coarse`` like the check itself.
        """
        span = (
            telemetry.tracer().begin("analyzer.coarse", writes=len(writes))
            if telemetry.ENABLED and writes
            else None
        )
        fractions = [
            unchanged_fraction(
                SnapshotPair(write.before, write.after, write.written_indices)
            )
            for write in writes
        ]
        if span is not None:
            span.end()
        return fractions

    def _record_flow(
        self,
        kind: VertexKind,
        name: str,
        call_path,
        writes,
        fractions: List[float],
        reads,
        time_s: float,
        host_source: bool = False,
        host_sink: bool = False,
        annotation=(),
        device: int = 0,
    ) -> Vertex:
        write_accesses = [
            ObjectAccess(
                alloc_id=write.obj.alloc_id,
                nbytes=write.nbytes,
                redundant_fraction=fraction,
                device=write.obj.device,
            )
            for write, fraction in zip(writes, fractions)
        ]
        read_accesses = [
            ObjectAccess(
                alloc_id=read.obj.alloc_id,
                nbytes=read.nbytes,
                device=read.obj.device,
            )
            for read in reads
        ]
        vertex = self.flow.on_api(
            kind,
            name,
            call_path,
            reads=read_accesses,
            writes=write_accesses,
            host_source=host_source,
            host_sink=host_sink,
            time_s=time_s,
            device=device,
        )
        if annotation and not vertex.operator:
            vertex.operator = tuple(annotation)
        self._current_operator = tuple(annotation)
        return vertex

    def _coarse_analysis(
        self, writes, fractions: List[float], api_ref: str
    ) -> None:
        span = (
            telemetry.tracer().begin("analyzer.coarse", writes=len(writes))
            if telemetry.ENABLED and writes
            else None
        )
        for write, fraction in zip(writes, fractions):
            hit = redundant_values_hit(
                fraction, write.obj.label, api_ref, self.engine.config
            )
            if hit is not None:
                self._add_hit(hit, fine=False)
        if span is not None:
            span.end()

    def _move_digest(
        self, key: str, digest: str, label: str
    ) -> Tuple[bool, Optional[str]]:
        """Reindex one key's digest.

        Returns ``(changed, departed)``: whether the digest changed, and
        the digest the key left behind (None for a new or unchanged key).
        """
        self._labels[key] = label
        previous = self._digests.get(key)
        if previous == digest:
            return False, None
        if previous is not None:
            members = self._by_digest.get(previous)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._by_digest[previous]
        self._digests[key] = digest
        self._by_digest.setdefault(digest, set()).add(key)
        return True, previous

    def _duplicate_analysis(
        self,
        writes,
        api_ref: str,
        host_extra: Optional[Tuple[str, np.ndarray]],
    ) -> None:
        """Reindex written objects' digests, then check dirty buckets.

        Each written object's ``write.after`` snapshot is hashed exactly
        once and moved between reverse-index buckets; only the buckets
        touched this API — joined by a written key, or left behind by
        one (the residual members are a new, smaller group) — are
        examined for new duplicate groups: O(written objects), not
        O(tracked objects).
        """
        span = (
            telemetry.tracer().begin("analyzer.duplicates", writes=len(writes))
            if telemetry.ENABLED
            else None
        )
        digest_moves = 0
        dirty = []
        for write in writes:
            if write.after.size == 0 and write.obj.size > 0:
                # Snapshot-free write (collector degraded past its
                # mirror budget): no values to hash, and the shared
                # empty digest must not fake a duplicate group.
                continue
            key = f"dev:{write.obj.alloc_id}"
            # The collector's snapshot store maintains chunk digests
            # incrementally; rehash here only when a write arrives
            # without one (e.g. from a test stub).
            digest = (
                write.digest
                if getattr(write, "digest", None) is not None
                else snapshot_digest(write.after)
            )
            changed, departed = self._move_digest(
                key, digest, write.obj.label
            )
            if changed:
                digest_moves += 1
                dirty.append(digest)
            if departed is not None:
                dirty.append(departed)
        if host_extra is not None:
            key, data = host_extra
            digest = snapshot_digest(np.asarray(data))
            changed, departed = self._move_digest(key, digest, key)
            if changed:
                digest_moves += 1
                dirty.append(digest)
            if departed is not None:
                dirty.append(departed)
        new_groups = 0
        seen = set()
        for digest in dirty:
            if digest in seen:
                continue
            seen.add(digest)
            members = self._by_digest.get(digest)
            if members is None or len(members) < 2:
                continue
            group_id = frozenset(members)
            if group_id in self._reported_groups:
                continue
            self._reported_groups.add(group_id)
            new_groups += 1
            labels = sorted(self._labels[k] for k in members)
            self._add_hit(
                PatternHit(
                    pattern=Pattern.DUPLICATE_VALUES,
                    object_label=labels[0],
                    api_ref=api_ref,
                    metrics={"group": tuple(labels), "digest": digest},
                    detail=(
                        f"{len(labels)} objects bitwise identical: "
                        f"{', '.join(labels)}"
                    ),
                ),
                fine=False,
            )
        if span is not None:
            span.end()
            telemetry.counter(
                "repro_analyzer_digest_moves_total",
                "Snapshot digests that moved reverse-index buckets.",
            ).inc(digest_moves)
            telemetry.counter(
                "repro_analyzer_duplicate_groups_total",
                "New duplicate-values groups reported.",
            ).inc(new_groups)
            telemetry.gauge(
                "repro_analyzer_tracked_digests",
                "Objects with a live snapshot digest.",
            ).set(len(self._digests))

    def _add_hit(self, hit: PatternHit, fine: bool) -> None:
        operator = self._current_operator
        if operator:
            hit.metrics.setdefault("operator", "/".join(operator))
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_analyzer_hit_occurrences_total",
                "Pattern-hit occurrences, before deduplication.",
            ).inc()
        key = (hit.pattern, hit.object_label, hit.api_ref)
        existing = self._hit_index.get(key)
        if existing is not None:
            existing.metrics["occurrences"] = (
                existing.metrics.get("occurrences", 1) + 1
            )
            return
        hit.metrics.setdefault("occurrences", 1)
        self._hit_index[key] = hit
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_analyzer_pattern_hits_total",
                "Deduplicated pattern hits recorded in the profile.",
                labelnames=("granularity",),
            ).labels(granularity="fine" if fine else "coarse").inc()
        if fine:
            self.profile.fine_hits.append(hit)
        else:
            self.profile.coarse_hits.append(hit)

    # -- finalization ------------------------------------------------------------

    @staticmethod
    def _api_ref(vertex: Vertex) -> str:
        return f"v{vertex.vid}:{vertex.name}"

    def finish(self, counters=None, workload: str = "", platform: str = "") -> ValueProfile:
        """Stamp run metadata and return the (still annotatable) profile."""
        if counters is not None:
            self.profile.counters = counters
        self.profile.workload_name = workload
        self.profile.platform_name = platform
        return self.profile
