"""``dead-code``: unreachable blocks and never-read registers.

Unreachable blocks (warning): no path from the entry reaches them —
typically an unconditional branch over real code.  One finding per
block, anchored at its first instruction.

Dead registers (info): a register that is defined but has no use in
the def-use graph.  Info, not warning, because the IR's
synthesized binaries legitimately produce them: a load site anchors the
loaded value with a typed arithmetic instruction whose result nothing
consumes (the anchor exists to give the slicer a type seed, not to
compute).  Store and branch instructions have no destination registers
and are never flagged.
"""

from __future__ import annotations

from typing import List

from repro.staticlint.findings import Finding, Severity
from repro.staticlint.passes import LintContext


def run(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_unreachable_blocks(ctx))
    findings.extend(_dead_registers(ctx))
    return findings


def _unreachable_blocks(ctx: LintContext) -> List[Finding]:
    reachable = ctx.cfg.reachable()
    findings: List[Finding] = []
    for block in ctx.cfg.blocks:
        if block.index in reachable:
            continue
        findings.append(
            ctx.finding(
                block.start_pc,
                "dead-code",
                Severity.WARNING,
                f"block {block.index} ({len(block.instructions)} "
                f"instructions) is unreachable from the entry",
                details={"block": block.index},
            )
        )
    return findings


def _dead_registers(ctx: LintContext) -> List[Finding]:
    graph = ctx.defuse
    findings: List[Finding] = []
    for reg in graph.registers():
        definition = graph.definition(reg)
        if definition is None or graph.uses(reg):
            continue
        findings.append(
            ctx.finding(
                definition.pc,
                "dead-code",
                Severity.INFO,
                f"{reg} is defined but never read",
                details={"register": str(reg)},
            )
        )
    return findings
