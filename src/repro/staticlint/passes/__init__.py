"""The lint rules.

Each pass module exposes ``run(ctx: LintContext) -> List[Finding]`` and
is registered in :data:`PASSES` under its pass name.  A module may emit
several related rule ids (the dead-store pass also owns
``re-stored-value`` and ``constant-store``).  :func:`run_passes` runs a
selection (default: all) and returns findings sorted by
``(pc, rule_id)`` so output is deterministic.

The :class:`LintContext` caches everything passes share — the CFG, the
def-use graph, and one lenient slicing run — so a full lint of a
function does each analysis exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.binary.defuse import DefUseGraph
from repro.binary.module import GpuFunction
from repro.binary.slicing import TypeInference, infer_register_types
from repro.staticlint.cfg import ControlFlowGraph, build_cfg
from repro.staticlint.findings import Finding, Severity


@dataclass
class LintContext:
    """Shared analysis state for one function's lint run."""

    function: GpuFunction
    #: Kernel name findings are attributed to (defaults to the function name).
    kernel: Optional[str] = None
    #: pc -> source line, from the kernel's line map when available.
    line_map: Mapping[int, int] = field(default_factory=dict)

    _cfg: Optional[ControlFlowGraph] = field(
        default=None, repr=False, compare=False
    )
    _defuse: Optional[DefUseGraph] = field(
        default=None, repr=False, compare=False
    )
    _inference: Optional[TypeInference] = field(
        default=None, repr=False, compare=False
    )

    @property
    def cfg(self) -> ControlFlowGraph:
        if self._cfg is None:
            self._cfg = build_cfg(self.function)
        return self._cfg

    @property
    def defuse(self) -> DefUseGraph:
        if self._defuse is None:
            self._defuse = DefUseGraph(self.function)
        return self._defuse

    @property
    def inference(self) -> TypeInference:
        """One lenient slicing run shared by every type-aware pass."""
        if self._inference is None:
            self._inference = infer_register_types(self.function, strict=False)
        return self._inference

    def finding(
        self,
        pc: int,
        rule_id: str,
        severity: Severity,
        message: str,
        details: Optional[Dict[str, Any]] = None,
    ) -> Finding:
        """Build a finding attributed to this context's kernel/lines."""
        return Finding(
            pc=pc,
            rule_id=rule_id,
            severity=severity,
            message=message,
            source_line=self.line_map.get(pc),
            kernel=self.kernel or self.function.name,
            details=details or {},
        )


from repro.staticlint.passes import (  # noqa: E402  (needs LintContext)
    dead_code,
    dead_store,
    lossy_conversion,
    redundant_load,
    type_conflict,
    width_mismatch,
)

#: Pass name -> entry point, in the order a full lint runs them.
PASSES: Dict[str, Callable[[LintContext], List[Finding]]] = {
    "dead-store": dead_store.run,
    "redundant-load": redundant_load.run,
    "lossy-conversion": lossy_conversion.run,
    "type-conflict": type_conflict.run,
    "dead-code": dead_code.run,
    "width-mismatch": width_mismatch.run,
}


def run_passes(
    ctx: LintContext, rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the selected passes (default: all) over ``ctx``."""
    selected = list(PASSES) if rules is None else list(rules)
    findings: List[Finding] = []
    for name in selected:
        try:
            entry = PASSES[name]
        except KeyError:
            raise ValueError(
                f"unknown lint pass {name!r} (available: {', '.join(PASSES)})"
            ) from None
        findings.extend(entry(ctx))
    findings.sort(key=lambda f: (f.pc, f.rule_id))
    return findings
