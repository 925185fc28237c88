"""Extract the diffable summary of one ``.vetrace`` recording.

A :class:`TraceSummary` is everything the differ needs from one
recording:

- the kernel binaries for structural matching — decoded from the
  footer kernel table when the workload hand-wrote one, otherwise
  synthesized from the per-site access types observed in the launch
  frames (the same reconstruction :func:`repro.staticlint.lint_workload`
  performs on live runs, but entirely from the recording);
- per-site value-pattern facts — pattern hits, write volumes, and
  redundant bytes aggregated by flow-graph vertex *name*, because the
  vertex name (kernel name, ``cudaMemcpy[p2p]``, ...) is the identity
  that survives across recordings while vertex ids do not.

Extraction replays the recording through the ordinary analysis stack
(:meth:`repro.tool.ValueExpert.profile_from_trace`), so everything the
profiler would report on a live run is what gets diffed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.obs as telemetry
from repro.analysis.profile import ValueProfile
from repro.binary.module import GpuFunction
from repro.binary.synthesis import synthesize_binary
from repro.flowgraph.graph import EdgeKind, VertexKind
from repro.gpu.accesses import AccessKind
from repro.gpu.dtypes import DType
from repro.trace_io.codec import decode_kernel_table, dtype_from_name
from repro.trace_io.format import EVENT_LAUNCH, TraceReader


@dataclass
class HitStats:
    """Aggregated pattern hits for one (pattern, object) pair at a site."""

    pattern: str
    object_label: str
    count: int = 0

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "pattern": self.pattern,
            "object": self.object_label,
            "count": self.count,
        }


@dataclass
class SiteSummary:
    """Value-pattern facts for one API site (flow-graph vertex name)."""

    name: str
    #: Vertex kind value: "kernel", "memcpy", or "memset".
    kind: str
    invocations: int = 0
    bytes_written: int = 0
    #: Sum of bytes * redundant_fraction over the site's WRITE edges.
    redundant_bytes: float = 0.0
    #: (pattern value, object label) -> aggregated hits.
    hits: Dict[Tuple[str, str], HitStats] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "kind": self.kind,
            "invocations": self.invocations,
            "bytes_written": self.bytes_written,
            "redundant_bytes": round(self.redundant_bytes, 3),
            "hits": [
                self.hits[key].to_dict() for key in sorted(self.hits)
            ],
        }


@dataclass
class TraceSummary:
    """Everything the differ needs from one recording."""

    path: str
    workload: str
    platform: str
    version: int
    #: Kernel name -> binary (decoded or synthesized) for CFG matching.
    kernels: Dict[str, GpuFunction] = field(default_factory=dict)
    #: Kernels whose binaries had to be synthesized from the recording.
    synthesized: List[str] = field(default_factory=list)
    #: Kernels with no binary and no PC table — matched by name only.
    binaryless: List[str] = field(default_factory=list)
    #: Vertex name -> aggregated value-pattern facts.
    sites: Dict[str, SiteSummary] = field(default_factory=dict)
    profile: Optional[ValueProfile] = None


def _vertex_of_ref(api_ref: str) -> Optional[int]:
    """The vertex id of an ``v<vid>:<name>`` hit reference."""
    head, _, _ = api_ref.partition(":")
    if head.startswith("v") and head[1:].isdigit():
        return int(head[1:])
    return None


def _harvest_site_types(
    reader: TraceReader,
) -> Dict[str, Tuple[Dict, Dict]]:
    """Per-kernel (site -> dtype, site -> kind) from the launch frames.

    The launch records carry each access's PC, kind, and sliced dtype;
    joined against the kernel's PC table this is exactly the input
    binary synthesis needs — no workload code required.
    """
    harvest: Dict[str, Tuple[Dict, Dict]] = {}
    for kind, meta, _arrays in reader.events():
        if kind != EVENT_LAUNCH:
            continue
        types, kinds = harvest.setdefault(meta["kernel"], ({}, {}))
        for record in meta.get("records", ()):
            dtype = dtype_from_name(record.get("dtype"))
            if dtype is not None:
                types.setdefault(record["pc"], dtype)
            kinds.setdefault(
                record["pc"],
                "load"
                if AccessKind(record["kind"]) is AccessKind.LOAD
                else "store",
            )
    return harvest


def _collect_kernels(reader: TraceReader, summary: TraceSummary) -> None:
    """Decode the footer kernel table, synthesizing missing binaries."""
    harvested: Optional[Dict[str, Tuple[Dict, Dict]]] = None
    for stub in decode_kernel_table(reader.footer):
        if stub.binary is not None:
            summary.kernels[stub.name] = stub.binary
            continue
        if not stub.line_map:
            summary.binaryless.append(stub.name)
            continue
        if harvested is None:
            harvested = _harvest_site_types(reader)
        pc_types, pc_kinds = harvested.get(stub.name, ({}, {}))
        site_types: Dict[Tuple[str, int], DType] = {}
        site_kinds: Dict[Tuple[str, int], str] = {}
        for pc, site in stub.line_map.items():
            if pc in pc_types:
                site_types[site] = pc_types[pc]
            if pc in pc_kinds:
                site_kinds[site] = pc_kinds[pc]
        # The stub is a decoded copy, not the module-level kernel
        # singleton, so attaching a binary here perturbs nothing.
        summary.kernels[stub.name] = synthesize_binary(
            stub, site_types, site_kinds
        )
        summary.synthesized.append(stub.name)
    summary.binaryless.sort()
    summary.synthesized.sort()


def _collect_sites(profile: ValueProfile, summary: TraceSummary) -> None:
    """Aggregate the profile's hits and write edges by vertex name."""
    by_vid = {}
    for vertex in profile.graph.vertices():
        by_vid[vertex.vid] = vertex
        if vertex.kind in (VertexKind.HOST, VertexKind.ALLOC):
            continue
        site = summary.sites.get(vertex.name)
        if site is None:
            site = summary.sites[vertex.name] = SiteSummary(
                name=vertex.name, kind=vertex.kind.value
            )
        site.invocations += vertex.invocations
    for edge in profile.graph.edges():
        if edge.kind is not EdgeKind.WRITE:
            continue
        dst = by_vid.get(edge.dst)
        if dst is None or dst.name not in summary.sites:
            continue
        site = summary.sites[dst.name]
        site.bytes_written += edge.bytes_accessed
        if edge.redundant_fraction:
            site.redundant_bytes += (
                edge.bytes_accessed * edge.redundant_fraction
            )
    for hit in profile.hits:
        vid = _vertex_of_ref(hit.api_ref)
        vertex = by_vid.get(vid) if vid is not None else None
        if vertex is None or vertex.name not in summary.sites:
            continue
        site = summary.sites[vertex.name]
        key = (hit.pattern.value, hit.object_label)
        stats = site.hits.get(key)
        if stats is None:
            stats = site.hits[key] = HitStats(
                pattern=hit.pattern.value, object_label=hit.object_label
            )
        stats.count += 1


def extract_summary(trace_path: str, shards: int = 1) -> TraceSummary:
    """Replay ``trace_path`` and build its diffable summary."""
    # Imported here: tracediff is a library layer under the tool facade
    # (which imports it back for the CLI); a module-level import would
    # be a layering cycle.
    from repro.tool.config import ToolConfig
    from repro.tool.valueexpert import ValueExpert

    span = (
        telemetry.tracer().begin("tracediff.extract", trace=trace_path)
        if telemetry.ENABLED
        else None
    )
    profile = ValueExpert(ToolConfig()).profile_from_trace(
        trace_path, shards=shards
    )
    reader = TraceReader(trace_path)
    try:
        summary = TraceSummary(
            path=trace_path,
            workload=reader.header.get("workload", ""),
            platform=reader.header.get("platform", ""),
            version=reader.version,
            profile=profile,
        )
        _collect_kernels(reader, summary)
    finally:
        reader.close()
    _collect_sites(profile, summary)
    if span is not None:
        span.end()
        telemetry.counter(
            "repro_tracediff_extractions_total",
            "Recordings summarized for trace diffing.",
        ).inc()
    return summary
