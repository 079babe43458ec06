"""BPF programs to test and benchmark the VM with.

* ``expr()`` draws a random restricted-Python expression over three
  context fields (binary ops, comparisons, conditional expressions);
  ``policy_source`` wraps it into a one-line policy the frontend
  compiles and the verifier accepts.
* ``LIBRARY`` maps a name to a builder of every program the library
  ships: the ``concord.policies`` factories, the profiler's ``lock_*``
  programs, the fleet's placement probe and the acceptance scenarios'
  misbehaving policies.  Each call builds a fresh program with fresh
  maps.
"""

from typing import Callable, Dict

from hypothesis import strategies as st

from repro.bpf import ContextLayout, HashMap, Program, compile_policy
from repro.concord import PolicySpec, policies, profiler
from repro.concord.api import LAYOUT_FOR_HOOK
from repro.fleet import placement
from repro.locks.base import (
    HOOK_LOCK_ACQUIRE,
    HOOK_LOCK_ACQUIRED,
    HOOK_LOCK_CONTENDED,
    HOOK_LOCK_RELEASE,
)
from repro.sim import Topology
from repro.tools import concordd

EXPR_LAYOUT = ContextLayout("prop", ["a", "b", "c"])

_terminal = st.sampled_from(["ctx.a", "ctx.b", "ctx.c", "1", "2", "7", "13"])
_binop = st.sampled_from(["+", "-", "*", "&", "|", "^"])
_cmp = st.sampled_from(["==", "!=", "<", ">", "<=", ">="])


@st.composite
def expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_terminal)
    kind = draw(st.integers(min_value=0, max_value=2))
    left = draw(expr(depth + 1))
    right = draw(expr(depth + 1))
    if kind == 0:
        return f"({left} {draw(_binop)} {right})"
    if kind == 1:
        return f"({left} {draw(_cmp)} {right})"
    return f"(({left}) if ({draw(expr(depth + 1))}) else ({right}))"


def policy_source(expression: str) -> str:
    return f"def f(ctx):\n    return {expression}\n"


def program_of(make_spec: Callable[[], PolicySpec]) -> Callable[[], Program]:
    """A builder compiling a fresh spec the way Concord loads it."""

    def build() -> Program:
        spec = make_spec()
        return compile_policy(
            spec.source, LAYOUT_FOR_HOOK[spec.hook], maps=spec.maps, name=spec.name
        )

    return build


def _profiler_spec(hook: str, source: str) -> Callable[[], PolicySpec]:
    def make() -> PolicySpec:
        maps = {name: HashMap(name, max_entries=65536) for name in ("stats", "wait_ts", "hold_ts")}
        return PolicySpec(f"profile.{hook}", hook, source, maps=maps)

    return make


def _placement_probe_spec() -> PolicySpec:
    return PolicySpec(
        "fleet-probe",
        HOOK_LOCK_ACQUIRED,
        placement._PROBE_SOURCE,
        maps={"sockets": HashMap("sockets", max_entries=4096)},
    )


_SPECS: Dict[str, Callable[[], PolicySpec]] = {
    "numa": policies.make_numa_policy,
    "priority": lambda: policies.make_priority_policy()[0],
    "inheritance": lambda: policies.make_inheritance_policy()[0],
    "parking": lambda: policies.make_parking_policy()[0],
    "amp": lambda: policies.make_amp_policy(Topology(sockets=2, cores_per_socket=4))[0],
    "vcpu": lambda: policies.make_vcpu_policy(4)[0],
    "placement.probe": _placement_probe_spec,
}
for _index in range(3):
    _SPECS[f"scl.{_index}"] = lambda i=_index: policies.make_scl_policies()[0][i]
for _hook, _source in (
    (HOOK_LOCK_ACQUIRE, profiler._ON_ACQUIRE),
    (HOOK_LOCK_CONTENDED, profiler._ON_CONTENDED),
    (HOOK_LOCK_ACQUIRED, profiler._ON_ACQUIRED),
    (HOOK_LOCK_RELEASE, profiler._ON_RELEASE),
):
    _SPECS[f"profiler.{_hook}"] = _profiler_spec(_hook, _source)
for _index, _suffix in enumerate(("", ".audit")):
    _SPECS[f"bad-numa{_suffix}"] = lambda i=_index: concordd.bad_numa_submission("*").specs[i]
for _index, _suffix in enumerate(("", ".echo")):
    _SPECS[f"tail-spike{_suffix}"] = (
        lambda i=_index: concordd.tail_spike_submission(3, lock_selector="*").specs[i]
    )

LIBRARY: Dict[str, Callable[[], Program]] = {
    name: program_of(make) for name, make in sorted(_SPECS.items())
}
