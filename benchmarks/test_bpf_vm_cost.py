"""BPF execution cost on the host: compiled vs interpreted, per policy.

Every program the library ships runs twice over the same seeded hook
contexts: a verified copy, which the VM runs as its compiled function,
and an unverified copy, which the reference interpreter the tests use as
their oracle (``tests/_bpf_oracle.py``) runs one instruction at a time.
Both must return the same r0 and simulated cost on every context, since
compiling changes host speed only.  Programs per host second for each
path go to ``results/BENCH_vm.json``.  The table in
``results/bpf_vm_cost.txt`` holds only the simulated side (instructions
and simulated ns per run), so it regenerates byte for byte.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time

from repro.bpf import VM, Verifier

from tests import _bpf_oracle as oracle
from tests._bpf_corpus import LIBRARY

from .conftest import RESULTS_DIR, run_once

#: Hook contexts per program; field values come from a small pool so
#: map keys stay bounded however often a program runs.
CONTEXTS = 64
_FIELD_VALUES = (0, 1, 2, 3, 5, 8, 13, 64, 1000, 50_000)
#: Each rate is the best of REPEATS timed loops of at least MIN_SECONDS.
REPEATS = 3
MIN_SECONDS = 0.05
SEED = 7


def _contexts(layout):
    rng = random.Random(SEED)
    return [[rng.choice(_FIELD_VALUES) for _ in layout.fields] for _ in range(CONTEXTS)]


def _runs_per_second(run, program, contexts):
    best = 0.0
    for _ in range(REPEATS):
        runs = 0
        start = time.perf_counter()
        while True:
            for ctx in contexts:
                run(program, ctx)
            runs += len(contexts)
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SECONDS:
                break
        best = max(best, runs / elapsed)
    return best


def _measure():
    vm = VM()
    rows = {}
    for name, build in LIBRARY.items():
        compiled, interpreted = build(), build()
        Verifier().verify(compiled)
        contexts = _contexts(compiled.ctx_layout)
        sim_ns = 0
        for ctx in contexts:
            result = vm.run(compiled, ctx)
            assert result == oracle.run(vm, interpreted, ctx), (name, ctx)
            sim_ns += result[1]
        assert compiled.insns_executed == interpreted.insns_executed, name
        rows[name] = {
            "insns": len(compiled.insns),
            "insns_per_run": compiled.insns_executed / CONTEXTS,
            "sim_ns_per_run": sim_ns / CONTEXTS,
            "interpreted_per_s": _runs_per_second(
                functools.partial(oracle.run, vm), interpreted, contexts
            ),
            "compiled_per_s": _runs_per_second(vm.run, compiled, contexts),
        }
    return rows


def test_bpf_vm_cost(benchmark, save_table):
    rows = run_once(_measure)(benchmark)

    programs = {}
    for name, row in rows.items():
        programs[name] = {
            "insns": row["insns"],
            "insns_per_run": round(row["insns_per_run"], 2),
            "sim_ns_per_run": round(row["sim_ns_per_run"], 2),
            "interpreted_per_s": round(row["interpreted_per_s"], 1),
            "compiled_per_s": round(row["compiled_per_s"], 1),
            "speedup": round(row["compiled_per_s"] / row["interpreted_per_s"], 2),
        }
    payload = {"bench": "bpf_vm_cost", "contexts": CONTEXTS, "programs": programs}
    json_path = os.path.join(RESULTS_DIR, "BENCH_vm.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = [
        f"BPF programs: simulated cost per run (mean over {CONTEXTS} seeded contexts)",
        f"  {'program':<24} {'insns':>6} {'insns/run':>10} {'sim ns/run':>11}",
    ]
    for name, row in programs.items():
        lines.append(
            f"  {name:<24} {row['insns']:>6} {row['insns_per_run']:>10.2f} "
            f"{row['sim_ns_per_run']:>11.2f}"
        )
    lines += [
        "",
        "  Compiled and interpreted runs agree on r0 and simulated cost.",
        # Host rates vary run to run, so they stay out of this table.
        f"  [host programs/sec per path saved to results/{os.path.basename(json_path)}]",
    ]
    save_table("bpf_vm_cost", "\n".join(lines))

    # Compiling pays off on every program, most on the long ones.
    for name, row in programs.items():
        assert row["speedup"] > 1.0, name
    assert programs["bad-numa.audit"]["speedup"] > 10
