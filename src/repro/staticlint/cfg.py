"""Basic blocks, control-flow graphs, and dominators for the SASS IR.

Partitioning follows the classic leader algorithm: the first
instruction, every branch target, and every instruction after a
terminator start a block.  A straight-line function — what
:mod:`repro.binary.synthesis` emits and what every pre-control-flow
binary was — is exactly one block, so all existing slicer and synthesis
behaviour is unchanged by construction.

Dominators use the iterative set algorithm over reverse post-order —
quadratic in the worst case but effectively linear on the shallow CFGs
kernels produce, and simpler to audit than Lengauer-Tarjan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as telemetry
from repro.errors import BinaryAnalysisError
from repro.binary.isa import Instruction
from repro.binary.module import GpuFunction


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    index: int
    instructions: List[Instruction]
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    @property
    def start_pc(self) -> int:
        """PC of the block's first instruction."""
        return self.instructions[0].pc

    @property
    def terminator(self) -> Instruction:
        """The block's last instruction."""
        return self.instructions[-1]

    def __repr__(self) -> str:
        return (
            f"<block {self.index} @{self.start_pc:#x} "
            f"n={len(self.instructions)} -> {self.successors}>"
        )


class ControlFlowGraph:
    """The CFG of one :class:`~repro.binary.module.GpuFunction`."""

    def __init__(self, function: GpuFunction, blocks: List[BasicBlock]):
        self.function = function
        self.blocks = blocks
        #: pc -> index of the containing block.
        self.block_of_pc: Dict[int, int] = {}
        for block in blocks:
            for instr in block.instructions:
                self.block_of_pc[instr.pc] = block.index
        self._rpo: Optional[List[int]] = None
        self._dominators: Optional[Dict[int, Set[int]]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, function: GpuFunction) -> "ControlFlowGraph":
        """Partition ``function`` into blocks and wire the edges."""
        instructions = function.instructions
        if not instructions:
            raise BinaryAnalysisError(
                f"cannot build a CFG for empty function {function.name!r}"
            )
        pcs = {instr.pc for instr in instructions}
        leaders: Set[int] = {instructions[0].pc}
        for position, instr in enumerate(instructions):
            if instr.opcode.is_branch:
                if instr.target is None:
                    raise BinaryAnalysisError(
                        f"unresolved branch target at {instr.pc:#x} in "
                        f"{function.name!r}"
                    )
                if instr.target not in pcs:
                    raise BinaryAnalysisError(
                        f"branch at {instr.pc:#x} targets {instr.target:#x}, "
                        f"which is outside {function.name!r}"
                    )
                leaders.add(instr.target)
            if instr.opcode.is_terminator and position + 1 < len(instructions):
                leaders.add(instructions[position + 1].pc)

        blocks: List[BasicBlock] = []
        current: List[Instruction] = []
        for instr in instructions:
            if instr.pc in leaders and current:
                blocks.append(BasicBlock(len(blocks), current))
                current = []
            current.append(instr)
        blocks.append(BasicBlock(len(blocks), current))

        cfg = cls(function, blocks)
        for block in blocks:
            cfg._wire(block)
        return cfg

    def _wire(self, block: BasicBlock) -> None:
        terminator = block.terminator
        successors: List[int] = []
        if terminator.opcode.is_branch:
            successors.append(self.block_of_pc[terminator.target])
            if terminator.is_conditional_branch:
                fallthrough = self._next_block(block)
                if fallthrough is not None:
                    successors.append(fallthrough)
        elif terminator.opcode.is_terminator:
            pass  # EXIT: no successors.
        else:
            fallthrough = self._next_block(block)
            if fallthrough is not None:
                successors.append(fallthrough)
        block.successors = successors
        for succ in successors:
            self.blocks[succ].predecessors.append(block.index)

    def _next_block(self, block: BasicBlock) -> Optional[int]:
        nxt = block.index + 1
        return nxt if nxt < len(self.blocks) else None

    # -- queries -------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        """The function entry block."""
        return self.blocks[0]

    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)

    @property
    def is_straight_line(self) -> bool:
        """Whether the function has no control flow (single block)."""
        return len(self.blocks) == 1

    def block_of(self, pc: int) -> BasicBlock:
        """The block containing ``pc``; raises on an unknown PC."""
        index = self.block_of_pc.get(pc)
        if index is None:
            raise BinaryAnalysisError(
                f"no block contains pc {pc:#x} in {self.function.name!r}"
            )
        return self.blocks[index]

    def reverse_post_order(self) -> List[int]:
        """Block indices in reverse post-order from the entry.

        Unreachable blocks are excluded (use :meth:`reachable` to find
        them); the order is cached.
        """
        if self._rpo is None:
            seen: Set[int] = set()
            post: List[int] = []

            def visit(index: int) -> None:
                # Iterative DFS: deep CFGs must not hit the recursion limit.
                stack = [(index, iter(self.blocks[index].successors))]
                seen.add(index)
                while stack:
                    node, successors = stack[-1]
                    advanced = False
                    for succ in successors:
                        if succ not in seen:
                            seen.add(succ)
                            stack.append(
                                (succ, iter(self.blocks[succ].successors))
                            )
                            advanced = True
                            break
                    if not advanced:
                        post.append(node)
                        stack.pop()

            visit(0)
            self._rpo = list(reversed(post))
        return list(self._rpo)

    def reachable(self) -> Set[int]:
        """Indices of blocks reachable from the entry."""
        return set(self.reverse_post_order())

    def dominators(self) -> Dict[int, Set[int]]:
        """Dominator sets per reachable block (iterative algorithm)."""
        if self._dominators is None:
            rpo = self.reverse_post_order()
            reachable = set(rpo)
            all_blocks = set(rpo)
            doms: Dict[int, Set[int]] = {
                index: ({0} if index == 0 else set(all_blocks))
                for index in rpo
            }
            changed = True
            while changed:
                changed = False
                for index in rpo:
                    if index == 0:
                        continue
                    preds = [
                        p
                        for p in self.blocks[index].predecessors
                        if p in reachable
                    ]
                    if not preds:
                        new = {index}
                    else:
                        new = set.intersection(*(doms[p] for p in preds))
                        new.add(index)
                    if new != doms[index]:
                        doms[index] = new
                        changed = True
            self._dominators = doms
        return {index: set(doms) for index, doms in self._dominators.items()}

    def immediate_dominators(self) -> Dict[int, Optional[int]]:
        """Immediate dominator per reachable block (entry maps to None)."""
        doms = self.dominators()
        idom: Dict[int, Optional[int]] = {}
        for index, dom_set in doms.items():
            if index == 0:
                idom[index] = None
                continue
            strict = dom_set - {index}
            # The immediate dominator is the strict dominator dominated
            # by every other strict dominator.
            idom[index] = max(strict, key=lambda d: len(doms[d]))
        return idom

    def dominates(self, a: int, b: int) -> bool:
        """Whether block ``a`` dominates block ``b``."""
        doms = self.dominators()
        return b in doms and a in doms[b]


# -- memoized construction ---------------------------------------------------
#
# Lint passes, the similarity fingerprinter, and repeated lint runs over
# the same workload all want the CFG of the same GpuFunction objects.
# Construction is cheap but not free (leader scan + edge wiring), and the
# derived RPO/dominator caches live on the CFG — rebuilding discards
# them.  The cache is keyed by binary identity, like the
# ``OfflineAnalyzer`` type caches: the CFG pins its function, so an id()
# can never be recycled while its entry lives.

#: (id(function), len(instructions)) -> cached CFG.  The length guards
#: against a function whose instruction list was extended in place.
_CFG_CACHE: Dict[Tuple[int, int], ControlFlowGraph] = {}
_CFG_CACHE_CAP = 1024
_cfg_cache_hits = 0
_cfg_cache_builds = 0


def build_cfg(function: GpuFunction) -> ControlFlowGraph:
    """Memoized :meth:`ControlFlowGraph.build` (keyed by binary identity).

    Every subsystem that needs a CFG — the lint passes and the
    kernel-similarity fingerprinter — should come through here so one
    function is partitioned exactly once per process.
    """
    global _cfg_cache_hits, _cfg_cache_builds
    key = (id(function), len(function.instructions))
    cached = _CFG_CACHE.get(key)
    if cached is not None and cached.function is function:
        _cfg_cache_hits += 1
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_staticlint_cfg_cache_hits_total",
                "CFG constructions avoided by the memoization cache.",
            ).inc()
        return cached
    cfg = ControlFlowGraph.build(function)
    if len(_CFG_CACHE) >= _CFG_CACHE_CAP:
        # Evict the oldest entry (insertion order); a bounded cache can
        # never pin an unbounded number of synthesized binaries.
        _CFG_CACHE.pop(next(iter(_CFG_CACHE)))
    _CFG_CACHE[key] = cfg
    _cfg_cache_builds += 1
    if telemetry.ENABLED:
        telemetry.counter(
            "repro_staticlint_cfg_cache_builds_total",
            "CFG constructions that missed the memoization cache.",
        ).inc()
    return cfg


def cfg_cache_stats() -> Tuple[int, int]:
    """``(hits, builds)`` since process start or the last clear."""
    return _cfg_cache_hits, _cfg_cache_builds


def clear_cfg_cache() -> None:
    """Drop every cached CFG and zero the stats (test isolation)."""
    global _cfg_cache_hits, _cfg_cache_builds
    _CFG_CACHE.clear()
    _cfg_cache_hits = 0
    _cfg_cache_builds = 0
