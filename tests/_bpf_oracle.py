"""The reference BPF interpreter: the oracle for the compiled VM.

``VM.run`` runs only verified programs, each through the function the
compiler built from the verifier's proof.  This interpreter executes any
program one instruction at a time, verified or not, so the compiled path
can be pinned to it and the runtime guards a verified program cannot
trip (instruction budget, memory bounds, type confusion) can still be
exercised.

:func:`interpret` has the compiled function's signature and result;
:func:`run` wraps it exactly as ``VM.run`` wraps a compiled function
(fault point, run statistics, R0 check, simulated cost).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.bpf.errors import RuntimeFault
from repro.bpf.helpers import HELPER_IDS
from repro.bpf.insn import (
    JMP_OPS,
    NR_REGS,
    OP_CALL,
    OP_EXIT,
    OP_JA,
    OP_LDC,
    OP_LD_MAP,
    OP_LDX,
    OP_MOV,
    OP_ST,
    OP_STX,
    R0,
    R1,
    R10,
    STACK_SIZE,
)
from repro.bpf.program import Program
from repro.bpf.vm import (
    ENTRY_COST_NS,
    INSN_LIMIT,
    VM,
    VMState,
    _ALU_DISPATCH,
    _U64,
    _budget_fault,
    _need_int,
    _to_signed,
)
from repro.faults import fault_point

#: A context pointer value: base of the read-only ctx area.
_CTX_BASE = 1 << 62
#: Stack grows down from R10 == _STACK_TOP.
_STACK_TOP = 1 << 61


def run(vm: VM, program: Program, ctx_values, task=None, engine=None) -> Tuple[int, int]:
    """``vm.run`` with the interpreter in place of the compiled function:
    returns (r0, simulated_cost_ns) at ``vm``'s per-instruction cost."""
    fault_point("bpf.vm.budget", default_exc=RuntimeFault, program=program.name)
    result, executed, helper_ns = interpret(ctx_values, program, task, engine, INSN_LIMIT)
    program.run_count += 1
    program.insns_executed += executed
    if not isinstance(result, int):
        raise RuntimeFault(f"{program.name}: R0 holds a non-scalar at exit")
    return result & _U64, ENTRY_COST_NS + helper_ns + executed * vm.per_insn_ns


def interpret(ctx_values, program: Program, task, engine, limit: int) -> Tuple[Any, int, int]:
    """The reference interpreter: (r0, executed insns, helper ns)."""
    state = VMState(task, engine, program)
    regs: List[Any] = [0] * NR_REGS
    regs[R1] = _CTX_BASE
    regs[R10] = _STACK_TOP
    stack: List[Any] = [0] * (STACK_SIZE // 8)
    insns = program.insns
    nr_insns = len(insns)
    pc = 0
    executed = 0
    helper_ns = 0

    while True:
        if pc < 0 or pc >= nr_insns:
            raise RuntimeFault(f"{program.name}: pc {pc} out of range")
        if executed >= limit:
            raise _budget_fault(program, limit)
        insn = insns[pc]
        executed += 1
        op = insn.op

        if op == OP_MOV:
            regs[insn.dst] = regs[insn.src] if insn.src is not None else insn.imm & _U64
        elif op == OP_LDC:
            regs[insn.dst] = insn.imm & _U64
        elif op in _ALU_DISPATCH:
            rhs = regs[insn.src] if insn.src is not None else insn.imm & _U64
            regs[insn.dst] = _ALU_DISPATCH[op](regs[insn.dst], rhs)
        elif op == OP_LDX:
            regs[insn.dst] = _load(ctx_values, stack, regs[insn.src], insn.off)
        elif op == OP_STX:
            _store(stack, regs[insn.dst], insn.off, regs[insn.src])
        elif op == OP_ST:
            _store(stack, regs[insn.dst], insn.off, insn.imm & _U64)
        elif op == OP_JA:
            pc += insn.off
            continue
        elif op in _JMP_DISPATCH:
            rhs = regs[insn.src] if insn.src is not None else insn.imm & _U64
            if _JMP_DISPATCH[op](regs[insn.dst], rhs):
                pc += insn.off
                continue
        elif op == OP_CALL:
            spec = HELPER_IDS.get(insn.imm)
            if spec is None:
                raise RuntimeFault(f"{program.name}: unknown helper #{insn.imm}")
            args = [regs[R1 + i] for i in range(spec.nargs)]
            fault_point(
                "bpf.helper",
                default_exc=RuntimeFault,
                program=program.name,
                helper=spec.name,
            )
            result = spec.fn(state, args)
            regs[R0] = result & _U64 if isinstance(result, int) else result
            for i in range(1, 6):
                regs[i] = 0  # caller-saved registers are clobbered
            helper_ns += spec.cost_ns
        elif op == OP_LD_MAP:
            if not 0 <= insn.imm < len(program.maps):
                raise RuntimeFault(f"{program.name}: bad map index {insn.imm}")
            regs[insn.dst] = program.maps[insn.imm]
        elif op == OP_EXIT:
            return regs[R0], executed, helper_ns
        else:
            raise RuntimeFault(f"{program.name}: illegal opcode {op!r}")
        pc += 1


def _load(ctx_values, stack, base, off: int):
    if not isinstance(base, int):
        raise RuntimeFault("load from a non-pointer value")
    addr = base + off
    if _CTX_BASE <= addr < _CTX_BASE + len(ctx_values) * 8:
        rel = addr - _CTX_BASE
        if rel % 8:
            raise RuntimeFault("unaligned context read")
        return ctx_values[rel // 8]
    if _STACK_TOP - STACK_SIZE <= addr < _STACK_TOP:
        rel = addr - (_STACK_TOP - STACK_SIZE)
        if rel % 8:
            raise RuntimeFault("unaligned stack read")
        return stack[rel // 8]
    raise RuntimeFault(f"load from invalid address {hex(addr)}")


def _store(stack, base, off: int, value) -> None:
    if not isinstance(base, int):
        raise RuntimeFault("store to a non-pointer value")
    addr = base + off
    if _STACK_TOP - STACK_SIZE <= addr < _STACK_TOP:
        rel = addr - (_STACK_TOP - STACK_SIZE)
        if rel % 8:
            raise RuntimeFault("unaligned stack write")
        stack[rel // 8] = value
        return
    raise RuntimeFault(f"store to invalid address {hex(addr)} (context is read-only)")


_JMP_DISPATCH = {
    "jeq": lambda a, b: a == b,
    "jne": lambda a, b: a != b,
    "jgt": lambda a, b: _need_int(a) > _need_int(b),
    "jge": lambda a, b: _need_int(a) >= _need_int(b),
    "jlt": lambda a, b: _need_int(a) < _need_int(b),
    "jle": lambda a, b: _need_int(a) <= _need_int(b),
    "jsgt": lambda a, b: _to_signed(_need_int(a)) > _to_signed(_need_int(b)),
    "jsge": lambda a, b: _to_signed(_need_int(a)) >= _to_signed(_need_int(b)),
    "jslt": lambda a, b: _to_signed(_need_int(a)) < _to_signed(_need_int(b)),
    "jsle": lambda a, b: _to_signed(_need_int(a)) <= _to_signed(_need_int(b)),
    "jset": lambda a, b: bool(_need_int(a) & _need_int(b)),
}
assert set(_JMP_DISPATCH) == set(JMP_OPS)
