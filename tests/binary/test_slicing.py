"""Tests for the bidirectional access-type slicing (paper §5.1)."""

import pytest

from repro.binary.isa import AccessType, Opcode
from repro.binary.module import BinaryBuilder
from repro.binary.slicing import infer_access_types, solve_worklist
from repro.errors import BinaryAnalysisError
from repro.gpu.dtypes import DType


def test_forward_slice_types_a_load():
    """A load consumed by FADD is FLOAT32."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    r1 = b.reg()
    b.fadd(r1, r0, r0)
    types = infer_access_types(b.build())
    assert types[load.pc] == AccessType(DType.FLOAT32, 1)


def test_backward_slice_types_a_store():
    """A store fed by DMUL is FLOAT64."""
    b = BinaryBuilder("k")
    r0, r1 = b.reg(), b.reg()
    b.dmul(r1, r0, r0)
    store = b.stg(r1, width_bits=64)
    types = infer_access_types(b.build())
    assert types[store.pc] == AccessType(DType.FLOAT64, 1)


def test_stg64_of_float32_is_two_values():
    """The paper's headline case: STG.64 storing two 32-bit floats."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=64)
    r1 = b.reg()
    b.fadd(r1, r0, r0)
    store = b.stg(r1, width_bits=64)
    types = infer_access_types(b.build())
    assert types[load.pc] == AccessType(DType.FLOAT32, 2)
    assert types[store.pc] == AccessType(DType.FLOAT32, 2)
    assert types[store.pc].width_bits == 64


def test_slice_through_mov_chain():
    """MOVs are type-transparent in both directions."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    r1, r2, r3 = b.reg(), b.reg(), b.reg()
    b.mov(r1, r0)
    b.mov(r2, r1)
    b.iadd(r3, r2, r2)
    types = infer_access_types(b.build())
    assert types[load.pc] == AccessType(DType.INT32, 1)


def test_conversion_types_each_side():
    """I2F forces int on its source and float on its destination."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    r1 = b.reg()
    b.i2f(r1, r0)
    store = b.stg(r1, width_bits=32)
    types = infer_access_types(b.build())
    assert types[load.pc].dtype is DType.INT32
    assert types[store.pc].dtype is DType.FLOAT32


def test_f2f_widening():
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    r1 = b.reg()
    b.f2f(r1, r0, dst_type=DType.FLOAT64, src_type=DType.FLOAT32)
    store = b.stg(r1, width_bits=64)
    types = infer_access_types(b.build())
    assert types[load.pc] == AccessType(DType.FLOAT32, 1)
    assert types[store.pc] == AccessType(DType.FLOAT64, 1)


def test_half_precision_pairs():
    """HADD2 operands are FLOAT16; a 32-bit load carries two."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    r1 = b.reg()
    b.hadd2(r1, r0, r0)
    types = infer_access_types(b.build())
    assert types[load.pc] == AccessType(DType.FLOAT16, 2)


def test_unreachable_type_falls_back_to_unsigned():
    """A load nothing typed touches defaults to the width's uint."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    types = infer_access_types(b.build())
    assert types[load.pc] == AccessType(DType.UINT32, 1)


def test_conflicting_types_rejected():
    b = BinaryBuilder("k")
    r0 = b.reg()
    b.ldg(r0, width_bits=32)
    r1, r2 = b.reg(), b.reg()
    b.fadd(r1, r0, r0)
    b.iadd(r2, r0, r0)  # r0 cannot be both float32 and int32
    with pytest.raises(BinaryAnalysisError):
        infer_access_types(b.build())


def test_load_store_roundtrip_through_arithmetic():
    """load -> fma -> store: both memory ops typed from the middle."""
    b = BinaryBuilder("k")
    r0, r1 = b.reg(), b.reg()
    load_a = b.ldg(r0, width_bits=32)
    load_b = b.ldg(r1, width_bits=32)
    r2 = b.reg()
    b.ffma(r2, r0, r1, r0)
    store = b.stg(r2, width_bits=32)
    types = infer_access_types(b.build())
    for instr in (load_a, load_b, store):
        assert types[instr.pc].dtype is DType.FLOAT32


def test_shared_memory_instructions_sliced_too():
    """LDS/STS participate in the same def-use slicing as LDG/STG."""
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.lds(r0, width_bits=32)
    r1 = b.reg()
    b.fadd(r1, r0, r0)
    store = b.sts(r1, width_bits=32)
    types = infer_access_types(b.build())
    assert types[load.pc].dtype is DType.FLOAT32
    assert types[store.pc].dtype is DType.FLOAT32


def test_f2i_types_both_sides():
    b = BinaryBuilder("k")
    r0 = b.reg()
    load = b.ldg(r0, width_bits=32)
    r1 = b.reg()
    b.f2i(r1, r0)
    store = b.stg(r1, width_bits=32)
    types = infer_access_types(b.build())
    assert types[load.pc].dtype is DType.FLOAT32
    assert types[store.pc].dtype is DType.INT32


def test_every_memory_instruction_gets_a_type():
    b = BinaryBuilder("k")
    regs = [b.reg() for _ in range(4)]
    memory_ops = [b.ldg(r, width_bits=32) for r in regs]
    out = b.reg()
    b.fadd(out, regs[0], regs[1])
    memory_ops.append(b.stg(out, width_bits=32))
    types = infer_access_types(b.build())
    assert set(types) == {op.pc for op in memory_ops}


def test_solve_worklist_chases_dependents_to_fixpoint():
    # Longest-path heights over a diamond a -> {b, c} -> d.
    edges = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
    preds = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]}
    height = {node: 0 for node in edges}

    def process(node):
        new = max((height[p] + 1 for p in preds[node]), default=0)
        if new != height[node]:
            height[node] = new
            return True
        return False

    evaluations = solve_worklist(list(edges), lambda n: edges[n], process)
    assert height == {"a": 0, "b": 1, "c": 1, "d": 2}
    # Every node is evaluated at least once, and the engine terminated.
    assert evaluations >= 4


def test_solve_worklist_does_not_requeue_stable_nodes():
    calls = []
    evaluations = solve_worklist(
        [1, 2, 3], lambda n: [1, 2, 3], lambda n: calls.append(n) or False
    )
    assert evaluations == 3
    assert sorted(calls) == [1, 2, 3]
