"""GPU binary container and a builder for synthetic functions.

A :class:`GpuFunction` is an SSA instruction list plus a line map (the
"line mapping section" the paper reads from debugging info).  Functions
may contain branches (``BRA`` / predicated ``@P BRA``); straight-line
functions — the common case for synthesized binaries — are a single
basic block and behave exactly as before the control-flow extension.
:class:`BinaryBuilder` offers a small assembler-like API used by tests,
by hand-written workload binaries, and by kernels that want the
untyped-access path exercised.

PC lookups (:meth:`GpuFunction.at`, :meth:`GpuBinary.function_of_pc`)
are served from cached indexes instead of linear scans; the function
index is rebuilt if the instruction list changes length, and the binary
index is invalidated by :meth:`GpuBinary.add`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import BinaryAnalysisError
from repro.binary.isa import Instruction, Opcode, Register
from repro.gpu.dtypes import DType

_INSTR_BYTES = 16


@dataclass
class GpuFunction:
    """One function of a GPU binary."""

    name: str
    instructions: List[Instruction]
    #: pc -> (filename, lineno); the simulated line-mapping section.
    line_map: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    #: Lazy pc -> instruction index; rebuilt when the instruction list
    #: changes length (instructions are appended, never edited in place).
    _pc_index: Optional[Dict[int, Instruction]] = field(
        default=None, repr=False, compare=False
    )

    def _index(self) -> Dict[int, Instruction]:
        index = self._pc_index
        if index is None or len(index) != len(self.instructions):
            index = {instr.pc: instr for instr in self.instructions}
            self._pc_index = index
        return index

    def at(self, pc: int) -> Instruction:
        """Instruction at a PC (O(1) after the first lookup); raises on
        a bad PC."""
        instr = self._index().get(pc)
        if instr is None:
            raise BinaryAnalysisError(
                f"no instruction at pc {pc:#x} in {self.name!r}"
            )
        return instr

    @property
    def memory_instructions(self) -> List[Instruction]:
        """The function's loads and stores, in program order."""
        return [i for i in self.instructions if i.opcode.is_memory]


@dataclass
class GpuBinary:
    """A loaded GPU binary: a set of functions."""

    functions: Dict[str, GpuFunction] = field(default_factory=dict)
    #: Lazy pc -> function index; invalidated by :meth:`add`.
    _pc_index: Optional[Dict[int, GpuFunction]] = field(
        default=None, repr=False, compare=False
    )

    def add(self, function: GpuFunction) -> None:
        """Register a function; duplicate names are rejected."""
        if function.name in self.functions:
            raise BinaryAnalysisError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        self._pc_index = None

    def function_of_pc(self, pc: int) -> Optional[GpuFunction]:
        """Find the function whose instruction range contains ``pc``.

        Served from a cached pc -> function map built on first query and
        invalidated when a function is added.
        """
        index = self._pc_index
        if index is None:
            index = {}
            for function in self.functions.values():
                for instr in function.instructions:
                    index[instr.pc] = function
            self._pc_index = index
        return index.get(pc)


class BinaryBuilder:
    """Assembler-style builder for synthetic :class:`GpuFunction`s.

    Registers are SSA — each :meth:`reg` call mints a fresh one, and
    every instruction defines only fresh registers.  Control flow is
    expressed with :meth:`label` and :meth:`bra`; forward references are
    resolved at :meth:`build` time.
    """

    def __init__(self, name: str, base_pc: int = 0):
        self.name = name
        self.base_pc = base_pc
        self._instructions: List[Instruction] = []
        self._next_reg = 0
        self._line_map: Dict[int, Tuple[str, int]] = {}
        #: label name -> bound pc.
        self._labels: Dict[str, int] = {}
        #: instruction index -> unresolved label name (forward branches).
        self._fixups: Dict[int, str] = {}

    def reg(self) -> Register:
        """Mint a fresh SSA register."""
        register = Register(self._next_reg)
        self._next_reg += 1
        return register

    def _emit(self, instr: Instruction, line: Optional[Tuple[str, int]]) -> Instruction:
        self._instructions.append(instr)
        if line is not None:
            self._line_map[instr.pc] = line
        return instr

    def _next_pc(self) -> int:
        return self.base_pc + len(self._instructions) * _INSTR_BYTES

    # -- control flow --------------------------------------------------------

    def label(self, name: str) -> int:
        """Bind ``name`` to the PC of the next emitted instruction."""
        if name in self._labels:
            raise BinaryAnalysisError(
                f"label {name!r} bound twice in {self.name!r}"
            )
        pc = self._next_pc()
        self._labels[name] = pc
        return pc

    def bra(
        self,
        target: "str | int",
        pred: Optional[Register] = None,
    ) -> Instruction:
        """Branch to a label name or PC; with ``pred``, a predicated
        ``@P BRA`` that falls through when the predicate is false."""
        resolved: Optional[int]
        if isinstance(target, str):
            resolved = self._labels.get(target)
            if resolved is None:
                self._fixups[len(self._instructions)] = target
        else:
            resolved = target
        return self._emit(
            Instruction(
                pc=self._next_pc(),
                opcode=Opcode.BRA,
                pred=pred,
                target=resolved,
            ),
            None,
        )

    # -- memory -------------------------------------------------------------

    def ldg(
        self,
        dest: Register,
        width_bits: int = 32,
        pc: Optional[int] = None,
        line: Optional[Tuple[str, int]] = None,
        addr: Optional[Register] = None,
    ) -> Instruction:
        """Global load of ``width_bits`` into ``dest`` (type unknown)."""
        return self._emit(
            Instruction(
                pc=self._next_pc() if pc is None else pc,
                opcode=Opcode.LDG,
                dests=(dest,),
                width_bits=width_bits,
                addr=addr,
            ),
            line,
        )

    def stg(
        self,
        src: Register,
        width_bits: int = 32,
        pc: Optional[int] = None,
        line: Optional[Tuple[str, int]] = None,
        addr: Optional[Register] = None,
    ) -> Instruction:
        """Global store of ``width_bits`` from ``src`` (type unknown)."""
        return self._emit(
            Instruction(
                pc=self._next_pc() if pc is None else pc,
                opcode=Opcode.STG,
                srcs=(src,),
                width_bits=width_bits,
                addr=addr,
            ),
            line,
        )

    def lds(
        self,
        dest: Register,
        width_bits: int = 32,
        pc: Optional[int] = None,
        line: Optional[Tuple[str, int]] = None,
        addr: Optional[Register] = None,
    ) -> Instruction:
        """Shared-memory load of ``width_bits`` into ``dest``."""
        return self._emit(
            Instruction(
                pc=self._next_pc() if pc is None else pc,
                opcode=Opcode.LDS,
                dests=(dest,),
                width_bits=width_bits,
                addr=addr,
            ),
            line,
        )

    def sts(
        self,
        src: Register,
        width_bits: int = 32,
        pc: Optional[int] = None,
        line: Optional[Tuple[str, int]] = None,
        addr: Optional[Register] = None,
    ) -> Instruction:
        """Shared-memory store of ``width_bits`` from ``src``."""
        return self._emit(
            Instruction(
                pc=self._next_pc() if pc is None else pc,
                opcode=Opcode.STS,
                srcs=(src,),
                width_bits=width_bits,
                addr=addr,
            ),
            line,
        )

    # -- typed arithmetic --------------------------------------------------------

    def _arith(self, opcode: Opcode, dest: Register, *srcs: Register) -> Instruction:
        return self._emit(
            Instruction(
                pc=self._next_pc(), opcode=opcode, dests=(dest,), srcs=tuple(srcs)
            ),
            None,
        )

    def fadd(self, dest: Register, a: Register, b: Register) -> Instruction:
        """FADD: FLOAT32 add."""
        return self._arith(Opcode.FADD, dest, a, b)

    def fmul(self, dest: Register, a: Register, b: Register) -> Instruction:
        """FMUL: FLOAT32 multiply."""
        return self._arith(Opcode.FMUL, dest, a, b)

    def ffma(self, dest: Register, a: Register, b: Register, c: Register) -> Instruction:
        """FFMA: FLOAT32 fused multiply-add."""
        return self._arith(Opcode.FFMA, dest, a, b, c)

    def dadd(self, dest: Register, a: Register, b: Register) -> Instruction:
        """DADD: FLOAT64 add."""
        return self._arith(Opcode.DADD, dest, a, b)

    def dmul(self, dest: Register, a: Register, b: Register) -> Instruction:
        """DMUL: FLOAT64 multiply."""
        return self._arith(Opcode.DMUL, dest, a, b)

    def dfma(self, dest: Register, a: Register, b: Register, c: Register) -> Instruction:
        """DFMA: FLOAT64 fused multiply-add."""
        return self._arith(Opcode.DFMA, dest, a, b, c)

    def hadd2(self, dest: Register, a: Register, b: Register) -> Instruction:
        """HADD2: packed FLOAT16 add."""
        return self._arith(Opcode.HADD2, dest, a, b)

    def iadd(self, dest: Register, a: Register, b: Register) -> Instruction:
        """IADD: INT32 add."""
        return self._arith(Opcode.IADD, dest, a, b)

    def imad(self, dest: Register, a: Register, b: Register, c: Register) -> Instruction:
        """IMAD: INT32 multiply-add."""
        return self._arith(Opcode.IMAD, dest, a, b, c)

    def isetp(self, dest: Register, a: Register, b: Register) -> Instruction:
        """ISETP: INT32 compare, producing a predicate register."""
        return self._arith(Opcode.ISETP, dest, a, b)

    def shl(self, dest: Register, value: Register, shift: Register) -> Instruction:
        """SHL: INT32 left shift (the address-scaling idiom)."""
        return self._arith(Opcode.SHL, dest, value, shift)

    def lop(self, dest: Register, a: Register, b: Register) -> Instruction:
        """LOP: UINT32 bitwise logic (``lop(d, r, r)`` is the xor-zero
        idiom — ``d`` holds constant zero)."""
        return self._arith(Opcode.LOP, dest, a, b)

    def mov(self, dest: Register, src: Register) -> Instruction:
        """Type-transparent move."""
        return self._arith(Opcode.MOV, dest, src)

    # -- conversions ---------------------------------------------------------------

    def _convert(
        self,
        opcode: Opcode,
        dest: Register,
        src: Register,
        dst_type: DType,
        src_type: DType,
    ) -> Instruction:
        return self._emit(
            Instruction(
                pc=self._next_pc(),
                opcode=opcode,
                dests=(dest,),
                srcs=(src,),
                src_type=src_type,
                dst_type=dst_type,
            ),
            None,
        )

    def i2f(
        self,
        dest: Register,
        src: Register,
        dst_type: DType = DType.FLOAT32,
        src_type: DType = DType.INT32,
    ) -> Instruction:
        """Int-to-float conversion (types each side)."""
        return self._convert(Opcode.I2F, dest, src, dst_type, src_type)

    def f2i(
        self,
        dest: Register,
        src: Register,
        dst_type: DType = DType.INT32,
        src_type: DType = DType.FLOAT32,
    ) -> Instruction:
        """Float-to-int conversion (types each side)."""
        return self._convert(Opcode.F2I, dest, src, dst_type, src_type)

    def f2f(
        self,
        dest: Register,
        src: Register,
        dst_type: DType = DType.FLOAT64,
        src_type: DType = DType.FLOAT32,
    ) -> Instruction:
        """Float width conversion (types each side)."""
        return self._convert(Opcode.F2F, dest, src, dst_type, src_type)

    # Width variants of the conversions, named after their SASS spellings
    # (I2F.F64, F2I.S64, F2F.F16.F32, ...), so lint tests can exercise
    # every typed opcode without spelling dtype pairs each time.

    def i2d(self, dest: Register, src: Register) -> Instruction:
        """I2F.F64: INT32 -> FLOAT64."""
        return self._convert(Opcode.I2F, dest, src, DType.FLOAT64, DType.INT32)

    def l2f(self, dest: Register, src: Register) -> Instruction:
        """I2F.S64: INT64 -> FLOAT32."""
        return self._convert(Opcode.I2F, dest, src, DType.FLOAT32, DType.INT64)

    def d2i(self, dest: Register, src: Register) -> Instruction:
        """F2I.F64: FLOAT64 -> INT32."""
        return self._convert(Opcode.F2I, dest, src, DType.INT32, DType.FLOAT64)

    def f2l(self, dest: Register, src: Register) -> Instruction:
        """F2I.S64: FLOAT32 -> INT64."""
        return self._convert(Opcode.F2I, dest, src, DType.INT64, DType.FLOAT32)

    def f2h(self, dest: Register, src: Register) -> Instruction:
        """F2F.F16.F32: narrow FLOAT32 -> FLOAT16."""
        return self._convert(Opcode.F2F, dest, src, DType.FLOAT16, DType.FLOAT32)

    def h2f(self, dest: Register, src: Register) -> Instruction:
        """F2F.F32.F16: widen FLOAT16 -> FLOAT32."""
        return self._convert(Opcode.F2F, dest, src, DType.FLOAT32, DType.FLOAT16)

    def d2f(self, dest: Register, src: Register) -> Instruction:
        """F2F.F32.F64: narrow FLOAT64 -> FLOAT32."""
        return self._convert(Opcode.F2F, dest, src, DType.FLOAT32, DType.FLOAT64)

    def exit(self) -> Instruction:
        """EXIT: end of the function."""
        return self._emit(
            Instruction(pc=self._next_pc(), opcode=Opcode.EXIT), None
        )

    def build(self) -> GpuFunction:
        """Finish and return the function (resolving forward branches)."""
        instructions = list(self._instructions)
        for index, name in self._fixups.items():
            target = self._labels.get(name)
            if target is None:
                raise BinaryAnalysisError(
                    f"branch to unbound label {name!r} in {self.name!r}"
                )
            instructions[index] = replace(instructions[index], target=target)
        return GpuFunction(
            name=self.name,
            instructions=instructions,
            line_map=dict(self._line_map),
        )
