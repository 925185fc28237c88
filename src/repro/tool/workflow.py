"""The paper's recommended two-pass workflow, automated (§4).

"First, enable ValueExpert's coarse-grained value pattern analysis,
which generates a value flow graph with redundant values and duplicate
values.  From the value flow graph, users can identify costly data
movement associated with GPU APIs using the important graph analysis.
For costly data movement edges in the important graph, the user can
compute a vertex slice graph for GPU kernels associated with the data
movement.  Then, specify interesting GPU kernels (by name) to
ValueExpert and enable fine-grained value pattern analysis on these
kernels."

:func:`run_recommended_workflow` performs exactly those steps and
returns everything each step produced, so the user sees the same
narrowing the paper walks through manually.

The workload executes **once**: the coarse pass records the run to a
``.vetrace`` file (see :mod:`repro.trace_io`), and the fine pass
replays that recording with its kernel filter instead of re-running
the workload.  Coarse recordings instrument every launch, so a
filtered fine replay is a strict narrowing of what was recorded.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.analysis.profile import ValueProfile
from repro.flowgraph.graph import ValueFlowGraph, VertexKind
from repro.flowgraph.important import important_graph
from repro.flowgraph.slicing import vertex_slice
from repro.gpu.timing import Platform, RTX_2080_TI
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert


@dataclass
class WorkflowResult:
    """Everything the two-pass workflow produced."""

    coarse_profile: ValueProfile
    important: ValueFlowGraph
    slices: List[ValueFlowGraph] = field(default_factory=list)
    selected_kernels: FrozenSet[str] = frozenset()
    fine_profile: Optional[ValueProfile] = None
    #: Path of the coarse-pass recording, when the caller asked to keep
    #: it (``trace_path=...``); None when a temporary file was used.
    trace_path: Optional[str] = None

    def summary(self) -> str:
        """Multi-line digest of both passes."""
        graph = self.coarse_profile.graph
        lines = [
            f"pass 1 (coarse): {graph.num_vertices} vertices / "
            f"{graph.num_edges} edges; "
            f"{len(self.coarse_profile.coarse_hits)} coarse hits",
            f"important graph: {self.important.num_vertices} vertices / "
            f"{self.important.num_edges} edges",
            f"selected kernels: {sorted(self.selected_kernels) or '(none)'}",
        ]
        if self.fine_profile is not None:
            lines.append(
                f"pass 2 (fine, filtered): "
                f"{len(self.fine_profile.fine_hits)} fine hits"
            )
        return "\n".join(lines)


def select_kernels_from_flows(
    graph: ValueFlowGraph,
    important: ValueFlowGraph,
) -> FrozenSet[str]:
    """Kernels on the important graph's redundant flows.

    Per the workflow: slice around the costly redundant edges and take
    every kernel vertex the slices reach.
    """
    kernels = set()
    for edge in important.edges():
        if edge.redundant_fraction is None or edge.redundant_fraction < 0.33:
            continue
        for endpoint in (edge.src, edge.dst):
            vertex = graph.vertex(endpoint)
            if vertex.kind is VertexKind.KERNEL:
                kernels.add(vertex.name)
            else:
                # Slice from the memory op to find the kernels its
                # object's flow reaches.
                sliced = vertex_slice(graph, endpoint)
                for reached in sliced.vertices():
                    if reached.kind is VertexKind.KERNEL:
                        kernels.add(reached.name)
    return frozenset(kernels)


#: ``I_e`` as a fraction of the heaviest edge's bytes (the paper's
#: Figure 3 example uses N/2, i.e. half the full-object edge).
EDGE_IMPORTANCE_FRACTION = 0.5


def run_recommended_workflow(
    workload,
    platform: Platform = RTX_2080_TI,
    observability: bool = False,
    trace_path: Optional[str] = None,
) -> WorkflowResult:
    """Execute the §4 workflow on a workload.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.base.Workload` (or anything the
        facade accepts via ``run_baseline``).
    observability:
        Self-profile both passes with :mod:`repro.obs` (metrics and
        stage spans accumulate across the two passes).
    trace_path:
        Where to keep the coarse-pass ``.vetrace`` recording.  By
        default a temporary file is used for the fine replay and
        deleted afterwards.
    """
    runner = getattr(workload, "run_baseline", workload)
    name = getattr(workload, "name", "")
    keep_trace = trace_path is not None
    if not keep_trace:
        fd, trace_path = tempfile.mkstemp(suffix=".vetrace")
        os.close(fd)
    try:
        # Pass 1 — coarse only, every kernel; record the run so pass 2
        # can replay it instead of executing the workload a second time.
        coarse_tool = ValueExpert(
            ToolConfig.coarse_only(observability=observability)
        )
        coarse_profile = coarse_tool.profile(
            runner, platform=platform, name=name, record_path=trace_path
        )
        graph = coarse_profile.graph

        # Important graph over byte importance (I_e relative to the
        # heaviest flow, as in the paper's N/2 example).
        heaviest = max(
            (edge.bytes_accessed for edge in graph.edges()), default=0
        )
        pruned = important_graph(
            graph,
            edge_threshold=heaviest * EDGE_IMPORTANCE_FRACTION,
            vertex_threshold=float("inf"),
        )

        # Slice around the costly redundant flows; select their kernels.
        selected = select_kernels_from_flows(graph, pruned)
        slices = [
            vertex_slice(graph, edge.dst)
            for edge in pruned.edges()
            if edge.redundant_fraction is not None
            and edge.redundant_fraction >= 0.33
        ]

        result = WorkflowResult(
            coarse_profile=coarse_profile,
            important=pruned,
            slices=slices,
            selected_kernels=selected,
            trace_path=trace_path if keep_trace else None,
        )
        if selected:
            # Pass 2 — fine analysis on the selected kernels only,
            # replayed from the coarse recording (the workload does not
            # run again).
            fine_tool = ValueExpert(
                ToolConfig.fine_only(
                    kernel_filter=selected, observability=observability
                )
            )
            result.fine_profile = fine_tool.profile_from_trace(
                trace_path, name=name
            )
        return result
    finally:
        if not keep_trace and os.path.exists(trace_path):
            os.unlink(trace_path)
