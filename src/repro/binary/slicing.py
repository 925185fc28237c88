"""Bidirectional access-type inference (paper Section 5.1).

"ValueExpert's offline analyzer adopts a bidirectional slicing
algorithm that derives a GPU memory instruction's access type based on
instructions with known access types on its def-use chains."

The algorithm is a sparse type-lattice propagation over the SSA def-use
graph, driven to a fixpoint by :func:`solve_worklist`:

1. Seed register types from typed opcodes (``FADD`` forces FLOAT32 on
   its data operands, ``DADD`` FLOAT64, ``IADD`` INT32, ...) and from
   the side-specific types of conversions (``I2F`` types its source as
   an integer and its destination as a float).
2. Propagate through type-transparent instructions (``MOV``) in both
   directions until no register changes — this is the bidirectional
   slice: a load's type can come *forward* from a consumer, a store's
   type *backward* from its producer, possibly through several moves.
   Each register's value lives in the lattice UNKNOWN < DType <
   CONFLICT; the forward and backward halves of the slice are the two
   propagation directions of one fixpoint.
3. A memory instruction's access type combines its data register's
   element type with the instruction's encoded width: a 64-bit ``STG``
   of a FLOAT32 register is *two* 32-bit values.

In strict mode (the default, used by the profiler), reaching CONFLICT
raises :class:`~repro.errors.BinaryAnalysisError` — real binaries
reinterpret bits through conversions, never through contradictory
arithmetic.  In lenient mode (used by the static linter's type-conflict
pass) conflicts are recorded as :class:`TypeConflict` values and the
contradicting registers fall back like untyped ones.  Registers no
typed instruction reaches fall back to an unsigned integer of the
access width, mirroring how the tool treats opaque bit moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import BinaryAnalysisError
from repro.binary.defuse import DefUseGraph
from repro.binary.isa import (
    AccessType,
    Instruction,
    Opcode,
    OPCODE_OPERAND_TYPE,
    Register,
)
from repro.binary.module import GpuFunction
from repro.gpu.dtypes import DType

N = TypeVar("N", bound=Hashable)

_FALLBACK_BY_BITS = {
    8: DType.UINT8,
    16: DType.UINT16,
    32: DType.UINT32,
    64: DType.UINT64,
    128: DType.UINT64,
}


class _Conflict:
    """Lattice top: a register constrained to two different types."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<conflict>"


_CONFLICT = _Conflict()


@dataclass(frozen=True)
class TypeConflict:
    """One contradiction found while slicing in lenient mode."""

    pc: int
    registers: Tuple[Register, ...]
    message: str


@dataclass
class TypeInference:
    """Result of one slicing run over a function."""

    #: Registers with a single consistent type (conflicted ones excluded).
    types: Dict[Register, DType]
    #: Contradictions (empty in strict mode — they raise instead).
    conflicts: List[TypeConflict] = field(default_factory=list)
    #: Worklist evaluations the propagation needed (telemetry).
    evaluations: int = 0


def solve_worklist(
    nodes: Iterable[N],
    dependents: Callable[[N], Iterable[N]],
    process: Callable[[N], bool],
) -> int:
    """Chaotic iteration: run ``process`` on every node until stable.

    ``process(node)`` recomputes the node's state and returns whether it
    changed; on change, ``dependents(node)`` are re-enqueued.  Returns
    the number of node evaluations (a cheap convergence metric the
    telemetry layer reports).
    """
    pending: List[N] = list(nodes)
    queued = set(pending)
    evaluations = 0
    while pending:
        node = pending.pop()
        queued.discard(node)
        evaluations += 1
        if process(node):
            for dep in dependents(node):
                if dep not in queued:
                    queued.add(dep)
                    pending.append(dep)
    return evaluations


def infer_register_types(
    function: GpuFunction, strict: bool = True
) -> TypeInference:
    """Run the bidirectional slice and return per-register types.

    With ``strict`` (the profiler's mode) a contradiction raises
    :class:`~repro.errors.BinaryAnalysisError`; without it the
    contradiction is recorded and the registers involved are left
    untyped so the caller can keep going — the static linter turns each
    record into a ``type-conflict`` finding.
    """
    DefUseGraph(function)  # validates the function is SSA before slicing
    lattice: Dict[Register, object] = {}
    conflicts: List[TypeConflict] = []

    def constrain(reg: Register, dtype: DType, instr: Instruction) -> bool:
        """Meet ``reg`` with ``dtype``; returns whether the value changed."""
        existing = lattice.get(reg)
        if existing is None:
            lattice[reg] = dtype
            return True
        if existing is _CONFLICT or existing == dtype:
            return False
        if strict:
            raise BinaryAnalysisError(
                f"conflicting types for {reg}: {existing.name} vs "
                f"{dtype.name} at {instr}"
            )
        conflicts.append(
            TypeConflict(
                pc=instr.pc,
                registers=(reg,),
                message=(
                    f"conflicting types for {reg}: {existing.name} vs "
                    f"{dtype.name} at {instr}"
                ),
            )
        )
        lattice[reg] = _CONFLICT
        return True

    # Step 1: seeds from typed opcodes and conversion sides.
    for instr in function.instructions:
        operand_type = OPCODE_OPERAND_TYPE.get(instr.opcode)
        if operand_type is not None:
            for reg in instr.dests + instr.srcs:
                constrain(reg, operand_type, instr)
        elif instr.opcode in (Opcode.I2F, Opcode.F2I, Opcode.F2F):
            if instr.src_type is not None:
                for reg in instr.srcs:
                    constrain(reg, instr.src_type, instr)
            if instr.dst_type is not None:
                for reg in instr.dests:
                    constrain(reg, instr.dst_type, instr)

    # Step 2: sparse fixpoint through MOVs on the worklist engine.  The
    # nodes are the MOV instructions themselves; a MOV whose endpoint
    # changed re-enqueues every MOV sharing either register.
    movs = [i for i in function.instructions if i.opcode is Opcode.MOV]
    movs_touching: Dict[Register, List[Instruction]] = {}
    for mov in movs:
        for reg in (mov.dests[0], mov.srcs[0]):
            movs_touching.setdefault(reg, []).append(mov)

    def process(mov: Instruction) -> bool:
        dst = mov.dests[0]
        src = mov.srcs[0]
        dst_type = lattice.get(dst)
        src_type = lattice.get(src)
        if dst_type is src_type or (
            dst_type is not None
            and src_type is not None
            and dst_type == src_type
        ):
            return False
        if src_type is None:
            lattice[src] = dst_type
            return True
        if dst_type is None:
            lattice[dst] = src_type
            return True
        # Both sides known and different: at least one is a DType.
        if src_type is _CONFLICT or dst_type is _CONFLICT:
            lattice[src] = lattice[dst] = _CONFLICT
            return True
        if strict:
            raise BinaryAnalysisError(
                f"MOV connects registers of different types "
                f"({src_type.name} vs {dst_type.name}) at {mov}"
            )
        conflicts.append(
            TypeConflict(
                pc=mov.pc,
                registers=(src, dst),
                message=(
                    f"MOV connects registers of different types "
                    f"({src_type.name} vs {dst_type.name}) at {mov}"
                ),
            )
        )
        lattice[src] = lattice[dst] = _CONFLICT
        return True

    def dependents(mov: Instruction) -> List[Instruction]:
        out: List[Instruction] = []
        for reg in (mov.dests[0], mov.srcs[0]):
            out.extend(movs_touching.get(reg, ()))
        return out

    evaluations = solve_worklist(list(reversed(movs)), dependents, process)

    types = {
        reg: value
        for reg, value in lattice.items()
        if isinstance(value, DType)
    }
    return TypeInference(types=types, conflicts=conflicts, evaluations=evaluations)


def _access_types(
    function: GpuFunction, types: Dict[Register, DType]
) -> Dict[int, AccessType]:
    """Step 3: combine register types with encoded widths."""
    result: Dict[int, AccessType] = {}
    for instr in function.memory_instructions:
        data_reg = _data_register(instr)
        width = instr.width_bits or 32
        dtype = types.get(data_reg) if data_reg is not None else None
        if dtype is None:
            dtype = _FALLBACK_BY_BITS.get(width, DType.UINT32)
        count = max(1, width // dtype.bits)
        result[instr.pc] = AccessType(dtype=dtype, count=count)
    return result


def infer_access_types(function: GpuFunction) -> Dict[int, AccessType]:
    """Infer the access type of every memory instruction in ``function``.

    Returns a map from the memory instruction's PC to its
    :class:`~repro.binary.isa.AccessType`.
    """
    inference = infer_register_types(function, strict=True)
    return _access_types(function, inference.types)


def _data_register(instr: Instruction) -> Optional[Register]:
    if instr.opcode.is_load:
        return instr.dests[0] if instr.dests else None
    if instr.opcode.is_store:
        return instr.srcs[0] if instr.srcs else None
    return None
