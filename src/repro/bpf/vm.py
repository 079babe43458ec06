"""The BPF virtual machine: only verified programs run, compiled.

Executes a program against a packed context and returns ``(r0,
cost_ns)`` where the cost models interpretation on the hook path: a
fixed trampoline-side entry cost plus a per-instruction charge plus each
helper's own cost.  The per-instruction cost is a knob so the "revisit
eBPF overhead" discussion in §6 can be explored as an ablation.

As in the paper's pipeline (compile, verify, load), only a verified
program ever runs.  Like the real kernel, which JITs a program once the
verifier accepts it, the VM runs it as one specialised Python function
(:func:`compile_program`), built from the verifier's own proof; the
verifier caches it with its verdict, so programs with the same content
share it.  That is host speed only: the compiled function counts
executed instructions per basic block, so the simulated cost above is
exactly what interpretation charges.

The function keeps one runtime guard, the instruction budget (second
line of defense behind the verifier's termination proof); memory bounds
and type safety become compile-time assertions on the verifier's
states.  Running an unverified program, or handing a program a context
of another size than the layout the verifier checked, is a bug in the
caller and raises :class:`BPFError`.  The test suite keeps a reference
interpreter as the oracle the compiled path is tested against.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..faults import fault_point
from .errors import BPFError, RuntimeFault
from .helpers import HELPER_IDS
from .insn import (
    ALU_OPS,
    JMP_OPS,
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
    SIGNED_JMPS,
    STACK_SIZE,
)
from .program import Program

__all__ = ["VM", "VMState", "ENTRY_COST_NS", "INSN_LIMIT", "compile_program"]

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

#: Fixed cost of entering a program (register save/restore, dispatch).
ENTRY_COST_NS = 20
#: Runtime instruction budget per run.
INSN_LIMIT = 4096


def _to_signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN else value


def _budget_fault(program: Program, limit: int) -> RuntimeFault:
    return RuntimeFault(f"{program.name}: instruction budget exhausted ({limit})")


class VMState:
    """Execution context handed to helpers."""

    __slots__ = ("task", "engine", "program")

    def __init__(self, task, engine, program: Program) -> None:
        self.task = task
        self.engine = engine
        self.program = program


class VM:
    """Runs verified programs through their compiled functions.

    Args:
        per_insn_ns: simulated interpretation cost per executed
            instruction.
    """

    def __init__(self, per_insn_ns: int = 2) -> None:
        self.per_insn_ns = per_insn_ns

    def run(
        self,
        program: Program,
        ctx_values: List[int],
        task=None,
        engine=None,
    ) -> Tuple[int, int]:
        """Execute; returns (r0, simulated_cost_ns).

        Raises :class:`BPFError`, not :class:`RuntimeFault`, when the
        program is unverified or ``ctx_values`` does not match its
        context layout: Concord's circuit breaker absorbs runtime
        faults, and neither is one.
        """
        compiled = program.compiled
        if compiled is None:
            raise BPFError(f"{program.name}: cannot run an unverified program")
        if len(ctx_values) != len(program.ctx_layout.fields):
            raise BPFError(
                f"{program.name}: context of {len(ctx_values)} fields, "
                f"layout {program.ctx_layout.name!r} has {len(program.ctx_layout.fields)}"
            )
        fault_point("bpf.vm.budget", default_exc=RuntimeFault, program=program.name)
        result, executed, helper_ns = compiled(ctx_values, program, task, engine, INSN_LIMIT)
        program.run_count += 1
        program.insns_executed += executed
        if not isinstance(result, int):
            raise RuntimeFault(f"{program.name}: R0 holds a non-scalar at exit")
        return result & _U64, ENTRY_COST_NS + helper_ns + executed * self.per_insn_ns


# ----------------------------------------------------------------------
# ALU semantics (u64 with eBPF quirks: div/mod by zero -> 0); the
# verifier folds constants with them
# ----------------------------------------------------------------------
def _need_int(value):
    if not isinstance(value, int):
        raise RuntimeFault("ALU on a non-scalar value")
    return value


_ALU_DISPATCH = {
    "add": lambda a, b: (_need_int(a) + _need_int(b)) & _U64,
    "sub": lambda a, b: (_need_int(a) - _need_int(b)) & _U64,
    "mul": lambda a, b: (_need_int(a) * _need_int(b)) & _U64,
    "div": lambda a, b: (_need_int(a) // b) & _U64 if _need_int(b) else 0,
    "mod": lambda a, b: (_need_int(a) % b) & _U64 if _need_int(b) else _need_int(a),
    "and": lambda a, b: (_need_int(a) & _need_int(b)) & _U64,
    "or": lambda a, b: (_need_int(a) | _need_int(b)) & _U64,
    "xor": lambda a, b: (_need_int(a) ^ _need_int(b)) & _U64,
    "lsh": lambda a, b: (_need_int(a) << (_need_int(b) & 63)) & _U64,
    "rsh": lambda a, b: (_need_int(a) >> (_need_int(b) & 63)) & _U64,
    "arsh": lambda a, b: (_to_signed(_need_int(a)) >> (_need_int(b) & 63)) & _U64,
    "neg": lambda a, b: (-_need_int(a)) & _U64,
}
assert set(_ALU_DISPATCH) == set(ALU_OPS)



# ----------------------------------------------------------------------
# Compiler: one Python function per verified program
# ----------------------------------------------------------------------
_MASK = str(_U64)  # the u64 mask as a literal in generated source
_PY_OPS = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
    "jeq": "==", "jne": "!=", "jgt": ">", "jge": ">=", "jlt": "<", "jle": "<=",
    "jsgt": ">", "jsge": ">=", "jslt": "<", "jsle": "<=",
}


def compile_program(program: Program, states: Dict[int, Any]) -> Callable:
    """The compiled function of a program the verifier just accepted.

    ``states`` is the verifier's proof (its abstract state before each
    reachable pc).  The function reads maps and the name from its
    ``program`` argument at run time, so the verifier's verdict cache can
    hand one function to every program with equal content.  It is called
    as ``fn(ctx_values, program, task, engine, limit)``, where ``limit`` is
    the instruction budget, and returns ``(r0, executed_insns,
    helper_cost_ns)``.
    """
    source, helper_ids = _generate(program, states)
    namespace: Dict[str, Any] = {}
    # Under this file's name, a profiler bills compiled code to the VM.
    exec(compile(source, __file__, "exec"), globals(), namespace)
    return namespace["_make"](*(HELPER_IDS[i].fn for i in helper_ids))


def _signed_src(a: str) -> str:
    return f"({a} - {1 << 64} if {a} & {_SIGN} else {a})"


def _alu_src(op: str, a: str, b) -> Optional[str]:
    """Source of ``_ALU_DISPATCH[op](a, b)`` on scalars; ``b`` is a
    register name or a constant.  None when the op leaves ``a`` as is."""
    if op == "neg":
        return f"(-{a}) & {_MASK}"
    if op in ("lsh", "rsh", "arsh"):
        shift = b & 63 if isinstance(b, int) else f"({b} & 63)"
        lhs = _signed_src(a) if op == "arsh" else a
        return f"({lhs} {'<<' if op == 'lsh' else '>>'} {shift}) & {_MASK}"
    if op in ("div", "mod"):
        expr = f"({a} {'//' if op == 'div' else '%'} {b}) & {_MASK}"
        by_zero = "0" if op == "div" else a  # eBPF: div -> 0, mod -> dst
        if isinstance(b, int):
            return expr if b else (None if op == "mod" else by_zero)
        return f"{expr} if {b} else {by_zero}"
    return f"({a} {_PY_OPS[op]} {b}) & {_MASK}"


def _jmp_src(op: str, a: str, b) -> str:
    """Source of the condition of jump ``op`` on scalars (eBPF jump
    semantics: u64 compares, signed ones on two's complement)."""
    if op == "jset":
        return f"{a} & {b}"
    if op in SIGNED_JMPS:
        a = _signed_src(a)
        b = _to_signed(b) if isinstance(b, int) else _signed_src(b)
    return f"{a} {_PY_OPS[op]} {b}"


def _generate(program: Program, states: Dict[int, Any]) -> Tuple[str, List[int]]:
    """Python source of one verified program, and the helpers it calls.

    Basic blocks run in pc order (jumps only go forward), each behind a
    check of the next leader ``nx``.  Registers and stack slots are
    locals; pointers and map handles compile away, because the
    verifier's states say where each one points.  Every such fact is
    asserted against the states here: what the verifier did not prove
    raises :class:`BPFError` instead of becoming unguarded code.
    """
    from .verifier import MAP_HANDLE, PTR_CTX, PTR_STACK, SCALAR  # imports this module

    insns = program.insns
    nr_insns = len(insns)
    helper_ids: set = set()
    uses_maps = False

    def unproven(pc: int, what: str) -> BPFError:
        return BPFError(f"{program.name}: {pc}: cannot compile, {what} not proven")

    def scalar(pc: int, reg: int) -> str:
        if states[pc].regs[reg][0] != SCALAR:
            raise unproven(pc, f"r{reg} scalar")
        return f"r{reg}"

    def operand(pc: int, insn):
        return scalar(pc, insn.src) if insn.src is not None else insn.imm & _U64

    def stack_slot(pc: int, reg: int, off: int) -> int:
        kind, base = states[pc].regs[reg]
        offset = base + off if kind == PTR_STACK else None
        if offset is None or offset % 8 or not -STACK_SIZE <= offset <= -8:
            raise unproven(pc, f"r{reg}{off:+d} stack address")
        return (offset + STACK_SIZE) // 8

    def target(pc: int, insn) -> int:
        if insn.off <= 0 or pc + insn.off >= nr_insns:
            raise unproven(pc, f"jump offset {insn.off}")
        return pc + insn.off

    def statements(pc: int, insn) -> List[str]:
        nonlocal uses_maps
        op, dst = insn.op, insn.dst
        if op == OP_LDC or (op == OP_MOV and insn.src is None):
            return [f"r{dst} = {insn.imm & _U64}"]
        if op == OP_MOV:
            if states[pc].regs[insn.src][0] in (PTR_CTX, PTR_STACK, MAP_HANDLE):
                return []  # the verifier tracks the copy
            src = scalar(pc, insn.src)
            return [] if insn.src == dst else [f"r{dst} = {src}"]
        if op == OP_LD_MAP:
            if not 0 <= insn.imm < len(program.maps):
                raise unproven(pc, f"map index {insn.imm}")
            return []
        if op in ALU_OPS:
            if states[pc].regs[dst][0] in (PTR_CTX, PTR_STACK):
                return []  # folded into the verifier's pointer offsets
            expr = _alu_src(op, scalar(pc, dst), operand(pc, insn))
            return [] if expr is None else [f"r{dst} = {expr}"]
        if op == OP_LDX:
            kind, base = states[pc].regs[insn.src]
            if kind == PTR_CTX:
                offset = base + insn.off
                if not program.ctx_layout.valid_offset(offset):
                    raise unproven(pc, f"context offset {offset}")
                return [f"r{dst} = ctx[{offset // 8}]"]
            slot = stack_slot(pc, insn.src, insn.off)
            if states[pc].stack[slot][0] != SCALAR:
                raise unproven(pc, f"stack slot {slot} scalar")
            return [f"r{dst} = s{slot}"]
        if op == OP_STX:
            return [f"s{stack_slot(pc, dst, insn.off)} = {scalar(pc, insn.src)}"]
        if op == OP_ST:
            return [f"s{stack_slot(pc, dst, insn.off)} = {insn.imm & _U64}"]
        if op == OP_CALL:
            spec = HELPER_IDS.get(insn.imm)
            if spec is None:
                raise unproven(pc, f"helper #{insn.imm}")
            args = []
            for i in range(spec.nargs):
                kind, index = states[pc].regs[R1 + i]
                if i == 0 and spec.takes_map:
                    if kind != MAP_HANDLE:
                        raise unproven(pc, "map handle in r1")
                    args.append(f"maps[{index}]")
                    uses_maps = True
                else:
                    args.append(scalar(pc, R1 + i))
            helper_ids.add(spec.helper_id)
            return [
                f"fault_point('bpf.helper', default_exc=RuntimeFault, "
                f"program=program.name, helper={spec.name!r})",
                f"r0 = h{spec.helper_id}(state, [{', '.join(args)}]) & {_MASK}",
                f"helper_ns += {spec.cost_ns}",
            ]
        if op == OP_JA:
            return [f"nx = {target(pc, insn)}"]
        if op in JMP_OPS:
            cond = _jmp_src(op, scalar(pc, dst), operand(pc, insn))
            return [f"nx = {target(pc, insn)} if {cond} else {pc + 1}"]
        if op == OP_EXIT:
            return [f"return {scalar(pc, R0)}, n, helper_ns"]
        raise unproven(pc, f"opcode {op!r}")

    leaders = {0}
    for pc, insn in enumerate(insns):
        if insn.op == OP_JA or insn.op in JMP_OPS:
            leaders.update((target(pc, insn), pc + 1))
        elif insn.op == OP_EXIT:
            leaders.add(pc + 1)
    leaders = sorted(pc for pc in leaders if pc < nr_insns)

    body: List[str] = []
    for start, end in zip(leaders, leaders[1:] + [nr_insns]):
        if start not in states:
            continue  # dead code: the verifier never reached it
        indent = " " * (8 if start == 0 else 12)
        if start:
            body.append(f"        if nx == {start}:")
        # The budget is charged per segment, a block split after each
        # helper call, so a run that exhausts it stops before the same
        # side effects as under the reference interpreter.
        segment = start
        for pc in range(start, end):
            if pc not in states:
                raise unproven(pc, "reachability")
            if insns[pc].op != OP_CALL and pc != end - 1:
                continue
            body += [
                f"{indent}n += {pc + 1 - segment}",
                f"{indent}if n > limit:",
                f"{indent}    raise _budget_fault(program, limit)",
            ]
            for at in range(segment, pc + 1):
                body += [indent + line for line in statements(at, insns[at])]
            segment = pc + 1
        last = insns[end - 1].op
        if last not in (OP_EXIT, OP_JA) and last not in JMP_OPS:
            if end == nr_insns:
                raise unproven(end - 1, "fall-through in range")
            body.append(f"{indent}nx = {end}")

    head = [
        f"def _make({', '.join(f'h{i}' for i in sorted(helper_ids))}):",
        "    def _compiled_bpf(ctx, program, task, engine, limit):",
    ]
    if helper_ids:
        head.append("        state = VMState(task, engine, program)")
    if uses_maps:
        head.append("        maps = program.maps")
    head += ["        n = 0", "        helper_ns = 0"]
    source = "\n".join(head + body + ["    return _compiled_bpf", ""])
    return source, sorted(helper_ids)
