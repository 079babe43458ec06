"""Compiled BPF against the reference interpreter, and the verdict cache.

``VM.run`` runs only verified programs, each as one compiled Python
function, and refuses anything else.  The interpreter in
``tests/_bpf_oracle.py`` is the oracle: for random arithmetic programs,
every ALU/JMP opcode and every program the library builds, a verified
copy run by the VM and an unverified copy run by the oracle must agree
on r0, simulated cost, run statistics, map contents, ``trace`` output,
the engine's rng stream and fault behaviour.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bpf import (
    BPFError,
    ContextLayout,
    HELPER_IDS,
    HashMap,
    Program,
    RuntimeFault,
    VerificationError,
    Verifier,
    VM,
    compile_policy,
)
from repro.bpf import verifier as bpf_verifier
from repro.bpf import vm as bpf_vm
from repro.bpf.insn import (
    ALU_OPS,
    JMP_OPS,
    Insn,
    OP_CALL,
    OP_EXIT,
    OP_JA,
    OP_LDC,
    OP_LDX,
    OP_MOV,
    R0,
    R1,
    R2,
    R3,
)
from repro.concord.api import LAYOUT_FOR_HOOK
from repro.concord.bpffs import BpfFS
from repro.concord.verifier import ConcordVerifier
from repro.faults import FaultPlan, injected
from repro.locks.base import HOOK_CMP_NODE, HOOK_LOCK_ACQUIRED

from tests import _bpf_oracle as oracle
from tests._bpf_corpus import EXPR_LAYOUT, LIBRARY, expr, policy_source

U64 = (1 << 64) - 1


@pytest.fixture(autouse=True)
def _empty_cache():
    bpf_verifier._VERDICTS.clear()
    yield
    bpf_verifier._VERDICTS.clear()


# ----------------------------------------------------------------------
# Running one program both ways
# ----------------------------------------------------------------------
def _pair(build):
    """Two copies of a program, each with its own maps: the first
    verified (compiled), the second left unverified for the oracle."""
    compiled, interpreted = build(), build()
    Verifier().verify(compiled)
    assert compiled.compiled is not None and interpreted.compiled is None
    return compiled, interpreted


def _world(seed):
    rng = random.Random(seed)
    task = SimpleNamespace(
        cpu_id=rng.randrange(16),
        numa_node=rng.randrange(4),
        tid=rng.randrange(1, 1000),
        priority=rng.choice((0, 1, 5, -3)),
        tags={"prio": 1, "boost": rng.randrange(3)},
    )
    engine = SimpleNamespace(now=rng.randrange(1 << 30), rng=random.Random(seed))
    return task, engine


def _ctx_values(rng, layout):
    pool = (0, 1, 2, 3, 7, 8, 31, 32, 63, 64, 1000, 1 << 32, U64, 1 << 63)
    return [
        rng.choice(pool) if rng.random() < 0.7 else rng.randrange(1 << 40)
        for _ in layout.fields
    ]


def _run(vm, program, ctx, task=None, engine=None):
    """A verified copy through ``vm.run``, an unverified one through the
    oracle at ``vm``'s per-instruction cost."""
    if program.verified:
        return vm.run(program, list(ctx), task=task, engine=engine)
    return oracle.run(vm, program, list(ctx), task=task, engine=engine)


def _outcome(vm, program, ctx, task, engine):
    try:
        return _run(vm, program, ctx, task, engine)
    except RuntimeFault as exc:
        return ("fault", str(exc))


def _map_state(program):
    return [bpf_map._data for bpf_map in program.maps]


def assert_same_runs(build, runs=40, seed=0, **vm_kwargs):
    """Drive both copies with the same contexts; compare everything."""
    compiled, interpreted = _pair(build)
    vm = VM(**vm_kwargs)
    (task_c, engine_c), (task_i, engine_i) = _world(seed), _world(seed)
    rng = random.Random(seed)
    for step in range(runs):
        ctx = _ctx_values(rng, compiled.ctx_layout)
        engine_c.now = engine_i.now = step * 997
        got = _outcome(vm, compiled, ctx, task_c, engine_c)
        want = _outcome(vm, interpreted, ctx, task_i, engine_i)
        assert got == want, (compiled.name, step, ctx)
    assert compiled.run_count == interpreted.run_count
    assert compiled.insns_executed == interpreted.insns_executed
    assert _map_state(compiled) == _map_state(interpreted)
    assert compiled.trace == interpreted.trace
    assert engine_c.rng.getstate() == engine_i.rng.getstate()
    return compiled, interpreted


# ----------------------------------------------------------------------
# Random arithmetic programs
# ----------------------------------------------------------------------
_raw = st.integers(min_value=-(1 << 65), max_value=1 << 65)


@given(expression=expr(), a=_raw, b=_raw, c=_raw)
@settings(max_examples=150, deadline=None)
def test_random_programs_match_interpreter(expression, a, b, c):
    source = policy_source(expression)
    compiled, interpreted = _pair(lambda: compile_policy(source, EXPR_LAYOUT))
    ctx = EXPR_LAYOUT.pack({"a": a, "b": b, "c": c})
    vm = VM(per_insn_ns=3)
    assert vm.run(compiled, ctx) == oracle.run(vm, interpreted, ctx)
    assert compiled.insns_executed == interpreted.insns_executed


# ----------------------------------------------------------------------
# Every ALU and JMP opcode, register and immediate forms
# ----------------------------------------------------------------------
_OPERANDS = (0, 1, 5, 63, 64, 65, (1 << 63) - 1, 1 << 63, U64, -1, -(1 << 64) - 3, 1 << 70)
_PAIR_LAYOUT = ContextLayout("pair", ["a", "b"])


def _op_program(op, imm):
    """r2 = ctx.a; r2 <op>= (ctx.b | imm); r0 = r2 (ALU) or the branch
    taken as 0/1 (JMP)."""
    rhs = {"imm": imm} if imm is not None else {"src": R3}
    head = [
        Insn(OP_LDX, dst=R2, src=R1, off=0),
        Insn(OP_LDX, dst=R3, src=R1, off=8),
    ]
    if op in ALU_OPS:
        body = [Insn(op, dst=R2, **rhs), Insn(OP_MOV, dst=R0, src=R2), Insn(OP_EXIT)]
    else:
        body = [
            Insn(op, dst=R2, off=3, **rhs),
            Insn(OP_LDC, dst=R0, imm=0),
            Insn(OP_JA, off=2),
            Insn(OP_LDC, dst=R0, imm=1),
            Insn(OP_EXIT),
        ]
    return Program(f"{op}", head + body, _PAIR_LAYOUT)


@pytest.mark.parametrize("op", ALU_OPS + JMP_OPS)
@pytest.mark.parametrize("form", ["reg", "imm"])
def test_every_opcode_matches_interpreter(op, form):
    vm = VM()
    for a in _OPERANDS:
        for b in _OPERANDS:
            imm = b if form == "imm" else None
            compiled, interpreted = _pair(lambda: _op_program(op, imm))
            ctx = [a, b]
            assert vm.run(compiled, ctx) == oracle.run(vm, interpreted, ctx), (op, form, a, b)


# ----------------------------------------------------------------------
# Every program the library builds
# ----------------------------------------------------------------------
def _helper_tour():
    """The helpers no library program calls."""
    source = (
        "def tour(ctx):\n"
        "    trace(ctx.tid + prandom() % 7 + tag(\"boost\") + cpu_id() + numa_node())\n"
        "    seen.update(ctx.tid, 1)\n"
        "    seen.delete(ctx.lock_id)\n"
        "    return ktime() - pid() + priority()\n"
    )
    layout = LAYOUT_FOR_HOOK[HOOK_LOCK_ACQUIRED]
    return compile_policy(source, layout, maps={"seen": HashMap("seen", max_entries=8)})


PROGRAMS = dict(LIBRARY, **{"helper-tour": _helper_tour})


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_library_program_matches_interpreter(name):
    build = PROGRAMS[name]
    assert_same_runs(build, seed=1)
    assert_same_runs(build, seed=2, per_insn_ns=11)


def test_library_calls_every_helper():
    used = set()
    for build in PROGRAMS.values():
        program = build()
        used.update(insn.imm for insn in program.insns if insn.op == OP_CALL)
    assert used == set(HELPER_IDS)


# ----------------------------------------------------------------------
# Fault behaviour
# ----------------------------------------------------------------------
_ACQUIRED = LIBRARY[f"profiler.{HOOK_LOCK_ACQUIRED}"]


def _waited(program):
    """Seed the acquired program's wait_ts so it takes its long path."""
    next(m for m in program.maps if m.name == "wait_ts").update(4, 1_000)
    return program


def _fault_outcome(program, ctx, plan, limit=None):
    """One run under ``plan``; given an instruction budget ``limit``, the
    compiled function or ``oracle.interpret`` is called directly."""
    with injected(plan):
        if limit is None:
            outcome = _outcome(VM(), program, ctx, None, None)
        else:
            fn = program.compiled if program.verified else oracle.interpret
            try:
                outcome = fn(list(ctx), program, None, None, limit)
            except RuntimeFault as exc:
                outcome = ("fault", str(exc))
    return outcome, dict(plan.fired), list(plan.log), _map_state(program)


@pytest.mark.parametrize("after", range(7))
def test_helper_fault_fires_at_the_same_call(after):
    compiled, interpreted = _pair(_ACQUIRED)
    ctx = _ACQUIRED().ctx_layout.pack({"tid": 4, "now_ns": 50_000, "lock_id": 2})
    results = []
    for program in (_waited(compiled), _waited(interpreted)):
        plan = FaultPlan()
        plan.fail("bpf.helper", after=after, times=1)
        results.append(_fault_outcome(program, ctx, plan))
    assert results[0] == results[1]
    assert (results[0][0][0] == "fault") == (after < 6)  # six helper calls


def test_every_budget_stops_at_the_same_point():
    compiled, interpreted = _pair(_ACQUIRED)
    ctx = _ACQUIRED().ctx_layout.pack({"tid": 4, "now_ns": 50_000, "lock_id": 2})
    for program in (compiled, interpreted):
        _waited(program)
    finished = [0, 0]  # direct calls keep no run statistics: count here
    for limit in range(0, len(compiled.insns) + 2):
        got = _fault_outcome(compiled, ctx, FaultPlan(), limit=limit)
        want = _fault_outcome(interpreted, ctx, FaultPlan(), limit=limit)
        assert got == want, limit
        finished[0] += got[0][0] != "fault"
        finished[1] += want[0][0] != "fault"
    assert got[0][0] != "fault"  # the largest budget lets the run finish
    assert finished[0] == finished[1] > 0


def test_budget_fault_point_fires_once_per_run():
    compiled, interpreted = _pair(_ACQUIRED)
    ctx = _ACQUIRED().ctx_layout.pack({})
    for program in (compiled, interpreted):
        plan = FaultPlan()
        plan.fail("bpf.vm.budget", after=2, times=1)
        with injected(plan):
            _run(VM(), program, ctx)
            _run(VM(), program, ctx)
            with pytest.raises(RuntimeFault):
                _run(VM(), program, ctx)
        assert plan.hits["bpf.vm.budget"] == 3


# ----------------------------------------------------------------------
# Only verified programs run
# ----------------------------------------------------------------------
def test_equal_content_shares_one_function():
    first, second = _pair(LIBRARY["priority"])
    Verifier().verify(second)
    assert first.compiled is second.compiled
    first.maps[0].update(7, 1)  # boost tid 7 in the first program only
    layout = first.ctx_layout
    ctx = layout.pack({"curr_tid": 7})
    assert VM().run(first, list(ctx))[0] == 1
    assert VM().run(second, list(ctx))[0] == 0


def _refused(program, ctx, match):
    """``VM.run`` raises a BPFError that is no RuntimeFault (the circuit
    breaker must not absorb it) and leaves the run statistics alone."""
    runs = program.run_count
    with pytest.raises(BPFError, match=match) as info:
        VM().run(program, ctx)
    assert not isinstance(info.value, RuntimeFault)
    assert program.run_count == runs


def test_unverified_program_is_refused():
    program = compile_policy(policy_source("ctx.a + ctx.b"), EXPR_LAYOUT)
    _refused(program, [1, 2, 3], "unverified")
    assert oracle.run(VM(), program, [1, 2, 3])[0] == 3


def test_context_of_another_size_is_refused():
    program = compile_policy(policy_source("ctx.a + ctx.b"), EXPR_LAYOUT)
    Verifier().verify(program)
    assert VM().run(program, [1, 2, 3])[0] == 3
    _refused(program, [1, 2, 3, 4], "4 fields")
    _refused(program, [1], "1 fields")
    assert program.run_count == 1


def _ktime_program():
    return Program("clock", [Insn(OP_CALL, imm=3), Insn(OP_EXIT)], EXPR_LAYOUT)


def test_rejected_program_loses_its_verified_state():
    program = _ktime_program()
    Verifier().verify(program)
    assert program.verified and program.compiled is not None
    with pytest.raises(VerificationError, match="not allowed"):
        Verifier(allowed_helpers=["trace"]).verify(program)
    assert not program.verified
    assert program.compiled is None
    with pytest.raises(BPFError, match="unverified"):
        BpfFS().pin("clock", program)
    engine = SimpleNamespace(now=42)
    _refused(program, EXPR_LAYOUT.pack({}), "unverified")
    assert oracle.run(VM(), program, EXPR_LAYOUT.pack({}), engine=engine)[0] == 42


def test_compiler_refuses_unproven_facts():
    program = compile_policy(policy_source("ctx.a + 1"), EXPR_LAYOUT)
    _log, states = Verifier()._analyse(program)
    bpf_vm._generate(program, states)  # the real proof compiles
    load_pc = next(pc for pc, insn in enumerate(program.insns) if insn.op == OP_LDX)
    states[load_pc].regs[program.insns[load_pc].src] = ("scalar", None)
    with pytest.raises(BPFError, match="not proven"):
        bpf_vm._generate(program, states)


# ----------------------------------------------------------------------
# The verdict cache
# ----------------------------------------------------------------------
def _count_steps(monkeypatch):
    counter = {"steps": 0}
    original = Verifier._step

    def step(self, *args):
        counter["steps"] += 1
        return original(self, *args)

    monkeypatch.setattr(Verifier, "_step", step)
    return counter


def test_second_verification_of_equal_content_is_cached(monkeypatch):
    counter = _count_steps(monkeypatch)
    build = LIBRARY[f"profiler.{HOOK_LOCK_ACQUIRED}"]
    concord_verifier = ConcordVerifier()
    first = concord_verifier.verify(HOOK_LOCK_ACQUIRED, build())
    steps = counter["steps"]
    assert steps > 0
    second = concord_verifier.verify(HOOK_LOCK_ACQUIRED, build())
    assert counter["steps"] == steps
    assert second.checks == first.checks
    assert second.bpf_report.log == first.bpf_report.log
    assert second.bpf_report.insn_count == first.bpf_report.insn_count
    assert second.bpf_report.program is not first.bpf_report.program
    assert second.bpf_report.program.verified


def test_other_whitelist_or_size_limit_misses_the_cache(monkeypatch):
    counter = _count_steps(monkeypatch)
    verifiers = [
        Verifier(),
        Verifier(allowed_helpers=["ktime_get_ns"]),
        Verifier(allowed_helpers=["ktime_get_ns", "trace"]),
        Verifier(max_insns=8),
    ]
    seen = []
    for verifier in verifiers + verifiers:
        verifier.verify(_ktime_program())
        seen.append(counter["steps"])
    assert seen == [2, 4, 6, 8, 8, 8, 8, 8]


def test_rejections_are_never_cached(monkeypatch):
    counter = _count_steps(monkeypatch)
    uninit = [Insn(OP_MOV, dst=R0, src=R2), Insn(OP_EXIT)]
    for attempt in range(1, 4):
        with pytest.raises(VerificationError, match="before init"):
            Verifier().verify(Program("bad", uninit, EXPR_LAYOUT))
        assert counter["steps"] == attempt
    assert bpf_verifier._VERDICTS == {}


def test_verifier_fault_point_fires_for_a_cached_program():
    build = LIBRARY["numa"]
    concord_verifier = ConcordVerifier()
    concord_verifier.verify(HOOK_CMP_NODE, build())  # caches the verdict
    program = build()
    concord_verifier.verify(HOOK_CMP_NODE, program)
    compiled = program.compiled
    plan = FaultPlan()
    plan.fail("concord.verifier", times=1)
    with injected(plan):
        with pytest.raises(VerificationError):
            concord_verifier.verify(HOOK_CMP_NODE, program)
        # The fault fires before Verifier.verify: the earlier verdict stands.
        assert program.verified and program.compiled is compiled
        concord_verifier.verify(HOOK_CMP_NODE, program)  # the flake passed
    assert plan.fired["concord.verifier"] == 1
    assert program.compiled is compiled


def test_verdict_cache_is_bounded():
    for value in range(bpf_verifier.VERDICT_CACHE_SIZE + 5):
        Verifier().verify(compile_policy(policy_source(str(value)), EXPR_LAYOUT))
    assert len(bpf_verifier._VERDICTS) == bpf_verifier.VERDICT_CACHE_SIZE
