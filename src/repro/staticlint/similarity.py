"""CFG fingerprints and kernel subgraph similarity.

Following Lim et al., "A Similarity Measure for GPU Kernel Subgraph
Matching" (PAPERS.md): each function is reduced to a per-block feature
vector — an opcode-class histogram plus structural features (degrees,
dominator-tree depth, self-loop and exit flags) — and two functions are
compared by greedily matching blocks and checking how many edges the
matching preserves.  Names and PCs never enter the score, so two
recordings of the same program match even after kernels are renamed or
relinked at different code bases.

Score design notes:

- every weight is dyadic (1/2, 1/4, 1/8), so a function scored against
  itself is *exactly* 1.0 in floating point — a property the test suite
  pins for every registered workload kernel;
- the overall score averages both greedy directions, making it
  symmetric by construction;
- the greedy matcher breaks block-similarity ties by reverse-post-order
  position, so structurally repetitive functions (many identical
  blocks) still pick the identity mapping against themselves.

:func:`match_functions` turns pairwise scores into a global greedy
assignment with confident / ambiguous / unmatched verdicts — the
matching layer :mod:`repro.tracediff` diffs profiles across.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.binary.isa import Opcode
from repro.binary.module import GpuFunction
from repro.staticlint.cfg import build_cfg

# -- opcode classes ----------------------------------------------------------

#: Coarse instruction classes the per-block histograms count.  Loads and
#: stores keep their address space (global vs shared): a kernel that
#: stages through shared memory is structurally unlike one that doesn't,
#: even when both move the same number of values.
OPCODE_CLASS_ORDER: Tuple[str, ...] = (
    "gload",
    "gstore",
    "sload",
    "sstore",
    "fp32",
    "fp64",
    "fp16",
    "int",
    "cmp",
    "bit",
    "conv",
    "mov",
    "branch",
    "exit",
)

_OPCODE_CLASSES: Dict[Opcode, str] = {
    Opcode.LDG: "gload",
    Opcode.STG: "gstore",
    Opcode.LDS: "sload",
    Opcode.STS: "sstore",
    Opcode.FADD: "fp32",
    Opcode.FMUL: "fp32",
    Opcode.FFMA: "fp32",
    Opcode.DADD: "fp64",
    Opcode.DMUL: "fp64",
    Opcode.DFMA: "fp64",
    Opcode.HADD2: "fp16",
    Opcode.IADD: "int",
    Opcode.IMAD: "int",
    Opcode.ISETP: "cmp",
    Opcode.SHL: "bit",
    Opcode.LOP: "bit",
    Opcode.I2F: "conv",
    Opcode.F2I: "conv",
    Opcode.F2F: "conv",
    Opcode.MOV: "mov",
    Opcode.BRA: "branch",
    Opcode.EXIT: "exit",
}

_CLASS_INDEX: Dict[str, int] = {
    name: index for index, name in enumerate(OPCODE_CLASS_ORDER)
}


# -- fingerprints ------------------------------------------------------------


@dataclass(frozen=True)
class BlockFeatures:
    """The similarity-relevant features of one basic block."""

    index: int
    #: Position in reverse post-order; -1 for unreachable blocks.
    rpo_position: int
    in_degree: int
    out_degree: int
    #: Depth in the dominator tree (entry = 0); -1 for unreachable blocks.
    dom_depth: int
    has_self_loop: bool
    is_exit: bool
    #: Instruction counts per :data:`OPCODE_CLASS_ORDER` class.
    histogram: Tuple[int, ...]


@dataclass(frozen=True)
class CfgFingerprint:
    """A function's CFG reduced to matchable features."""

    name: str
    num_instructions: int
    blocks: Tuple[BlockFeatures, ...]
    #: CFG edges as (source block index, destination block index).
    edges: Tuple[Tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)

    @property
    def num_edges(self) -> int:
        """Number of CFG edges."""
        return len(self.edges)


def fingerprint(function: GpuFunction) -> CfgFingerprint:
    """Compute the CFG fingerprint of ``function`` (CFG memoized)."""
    cfg = build_cfg(function)
    rpo = cfg.reverse_post_order()
    rpo_position = {block: pos for pos, block in enumerate(rpo)}
    idom = cfg.immediate_dominators()
    # A block's immediate dominator precedes it in RPO, so one forward
    # sweep computes every dominator-tree depth.
    depths: Dict[int, int] = {}
    for index in rpo:
        parent = idom[index]
        depths[index] = 0 if parent is None else depths[parent] + 1

    blocks: List[BlockFeatures] = []
    edges: List[Tuple[int, int]] = []
    for block in cfg.blocks:
        histogram = [0] * len(OPCODE_CLASS_ORDER)
        for instr in block.instructions:
            histogram[_CLASS_INDEX[_OPCODE_CLASSES[instr.opcode]]] += 1
        for succ in block.successors:
            edges.append((block.index, succ))
        blocks.append(
            BlockFeatures(
                index=block.index,
                rpo_position=rpo_position.get(block.index, -1),
                in_degree=len(block.predecessors),
                out_degree=len(block.successors),
                dom_depth=depths.get(block.index, -1),
                has_self_loop=block.index in block.successors,
                is_exit=block.terminator.opcode is Opcode.EXIT,
                histogram=tuple(histogram),
            )
        )
    return CfgFingerprint(
        name=function.name,
        num_instructions=len(function.instructions),
        blocks=tuple(blocks),
        edges=tuple(edges),
    )


# -- block and function similarity -------------------------------------------


def _ratio(x: int, y: int) -> float:
    """Smooth agreement of two small non-negative counts: 1.0 iff equal."""
    if x == y:
        return 1.0
    lo, hi = (x, y) if x < y else (y, x)
    return (lo + 1) / (hi + 1)


def block_similarity(a: BlockFeatures, b: BlockFeatures) -> float:
    """Similarity of two blocks in [0, 1]; 1.0 iff feature-identical.

    Dyadic weights: 1/2 histogram overlap, 1/4 structural agreement
    (degrees + dominator depth), 1/8 each for the self-loop and exit
    flags.
    """
    overlap = sum(min(x, y) for x, y in zip(a.histogram, b.histogram))
    denom = max(sum(a.histogram), sum(b.histogram))
    hist = 1.0 if denom == 0 else overlap / denom
    struct = (
        _ratio(a.in_degree, b.in_degree)
        + _ratio(a.out_degree, b.out_degree)
        + _ratio(a.dom_depth + 1, b.dom_depth + 1)
    ) / 3.0
    loop = 1.0 if a.has_self_loop == b.has_self_loop else 0.0
    exits = 1.0 if a.is_exit == b.is_exit else 0.0
    return 0.5 * hist + 0.25 * struct + 0.125 * loop + 0.125 * exits


def _position(block: BlockFeatures, num_blocks: int) -> int:
    """A unique matching position per block.

    Reachable blocks use their RPO position; unreachable blocks are
    ordered after every reachable one, by index.
    """
    if block.rpo_position >= 0:
        return block.rpo_position
    return num_blocks + block.index


def _directional(a: CfgFingerprint, b: CfgFingerprint) -> float:
    """Greedy one-directional subgraph score s(a -> b) in [0, 1]."""
    available = set(range(len(b.blocks)))
    mapping: Dict[int, int] = {}
    matched_total = 0.0
    order = sorted(a.blocks, key=lambda blk: _position(blk, len(a.blocks)))
    for block in order:
        if not available:
            break
        pos = _position(block, len(a.blocks))
        best_index = -1
        best_key: Optional[Tuple[float, int, int]] = None
        for candidate_index in available:
            candidate = b.blocks[candidate_index]
            sim = block_similarity(block, candidate)
            # Ties prefer the closest RPO position, then the lowest
            # index — so identical fingerprints pick the identity map.
            key = (
                sim,
                -abs(pos - _position(candidate, len(b.blocks))),
                -candidate.index,
            )
            if best_key is None or key > best_key:
                best_key, best_index = key, candidate_index
        available.discard(best_index)
        mapping[block.index] = best_index
        matched_total += best_key[0]

    block_score = matched_total / max(len(a.blocks), len(b.blocks))
    b_edges = set(b.edges)
    preserved = sum(
        1
        for (src, dst) in a.edges
        if src in mapping
        and dst in mapping
        and (mapping[src], mapping[dst]) in b_edges
    )
    edge_denom = max(len(a.edges), len(b.edges))
    edge_score = 1.0 if edge_denom == 0 else preserved / edge_denom
    return 0.5 * block_score + 0.5 * edge_score


Fingerprintable = Union[GpuFunction, CfgFingerprint]


def _as_fingerprint(value: Fingerprintable) -> CfgFingerprint:
    if isinstance(value, CfgFingerprint):
        return value
    return fingerprint(value)


def similarity(a: Fingerprintable, b: Fingerprintable) -> float:
    """Symmetric subgraph similarity of two functions in [0, 1].

    The average of both greedy directions; exactly 1.0 for a function
    against itself (or any feature-identical twin), regardless of
    names or PCs.
    """
    fa, fb = _as_fingerprint(a), _as_fingerprint(b)
    return 0.5 * (_directional(fa, fb) + _directional(fb, fa))


# -- global matching ---------------------------------------------------------


class MatchVerdict(enum.Enum):
    """Confidence of one cross-version kernel pairing."""

    CONFIDENT = "confident"
    AMBIGUOUS = "ambiguous"
    UNMATCHED = "unmatched"

    def __str__(self) -> str:
        return self.value


#: Pairs scoring below this are never matched at all.
MATCH_FLOOR = 0.5
#: Minimum score for a CONFIDENT verdict.
CONFIDENT_SCORE = 0.8
#: Minimum lead over the runner-up for a CONFIDENT verdict on a
#: *renamed* pair; same-name pairs are corroborated by the name itself.
CONFIDENT_MARGIN = 0.1


@dataclass(frozen=True)
class FunctionMatch:
    """One matched (old, new) function pair."""

    old: str
    new: str
    score: float
    verdict: MatchVerdict
    #: Best alternative candidate for ``old`` — (new name, score).
    runner_up: Optional[Tuple[str, float]] = None

    @property
    def renamed(self) -> bool:
        """Whether the pair was matched despite differing names."""
        return self.old != self.new

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        out: Dict = {
            "old": self.old,
            "new": self.new,
            "score": round(self.score, 6),
            "verdict": self.verdict.value,
            "renamed": self.renamed,
        }
        if self.runner_up is not None:
            out["runner_up"] = [self.runner_up[0], round(self.runner_up[1], 6)]
        return out


@dataclass
class MatchReport:
    """The global matching between two sets of functions."""

    matches: List[FunctionMatch]
    #: Old-side functions with no counterpart (removed kernels).
    removed: List[str]
    #: New-side functions with no counterpart (added kernels).
    added: List[str]

    def match_for_old(self, name: str) -> Optional[FunctionMatch]:
        """The match whose old side is ``name``, if any."""
        for match in self.matches:
            if match.old == name:
                return match
        return None

    def to_dict(self) -> Dict:
        """JSON-ready representation."""
        return {
            "matches": [m.to_dict() for m in self.matches],
            "removed": list(self.removed),
            "added": list(self.added),
        }


def match_functions(
    old: Mapping[str, GpuFunction],
    new: Mapping[str, GpuFunction],
) -> MatchReport:
    """Globally match two function sets by CFG similarity.

    Greedy assignment over all pairwise scores, highest first; equal
    scores prefer name-identical pairs (the name is a tie-breaker,
    never a requirement).  A matched pair is CONFIDENT when it scores
    >= :data:`CONFIDENT_SCORE` and either keeps its name or leads its
    runner-up by :data:`CONFIDENT_MARGIN`; other matches are AMBIGUOUS.
    Functions left without a partner land in ``removed`` / ``added``.
    """
    old_prints = {name: fingerprint(fn) for name, fn in old.items()}
    new_prints = {name: fingerprint(fn) for name, fn in new.items()}
    scores: Dict[Tuple[str, str], float] = {
        (old_name, new_name): similarity(old_print, new_print)
        for old_name, old_print in old_prints.items()
        for new_name, new_print in new_prints.items()
    }

    ranked = sorted(
        scores.items(),
        key=lambda item: (-item[1], item[0][0] != item[0][1], item[0]),
    )
    taken_old: set = set()
    taken_new: set = set()
    matches: List[FunctionMatch] = []
    for (old_name, new_name), score in ranked:
        if score < MATCH_FLOOR:
            break
        if old_name in taken_old or new_name in taken_new:
            continue
        taken_old.add(old_name)
        taken_new.add(new_name)
        alternatives = [
            (other_new, other_score)
            for (other_old, other_new), other_score in scores.items()
            if other_old == old_name and other_new != new_name
        ]
        runner_up = (
            max(alternatives, key=lambda item: (item[1], item[0]))
            if alternatives
            else None
        )
        confident = score >= CONFIDENT_SCORE and (
            old_name == new_name
            or runner_up is None
            or score - runner_up[1] >= CONFIDENT_MARGIN
        )
        matches.append(
            FunctionMatch(
                old=old_name,
                new=new_name,
                score=score,
                verdict=(
                    MatchVerdict.CONFIDENT
                    if confident
                    else MatchVerdict.AMBIGUOUS
                ),
                runner_up=runner_up,
            )
        )

    matches.sort(key=lambda m: m.old)
    return MatchReport(
        matches=matches,
        removed=sorted(set(old_prints) - taken_old),
        added=sorted(set(new_prints) - taken_new),
    )
