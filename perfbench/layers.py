"""Layer map and profile attribution for the traced run.

Every module under ``src/repro`` belongs to exactly one layer (the
benchmark's tests enforce it), so a function's self time in a
``cProfile`` run is credited to the layer that owns its module.  Code
outside ``repro`` (the interpreter, ``heapq``, this benchmark) is
``other``.  Split packages list their modules one by one, so a new
module there maps to no layer until someone decides where it belongs.
"""

from __future__ import annotations

import fnmatch
import os
from typing import Dict, List, Optional, Tuple

import repro
from repro.bpf.verifier import Verifier
from repro.bpf.vm import VM
from repro.controlplane.daemon import Concordd
from repro.controlplane.journal import PolicyJournal
from repro.fleet.coordinator import FleetCoordinator
from repro.kernel.core import Kernel
from repro.livepatch.patcher import Patcher
from repro.locks.switchable import SwitchableLock, SwitchableRWLock
from repro.replication.group import ReplicaGroup
from repro.replication.journal import ReplicatedJournal
from repro.traffic.trace import TraceGenerator

__all__ = [
    "LAYERS",
    "OTHER",
    "ENTRY_POINTS",
    "layer_of",
    "layers_matching",
    "module_of",
    "repro_modules",
    "self_seconds",
    "entry_point_stats",
]

#: layer -> module-name globs.  Order does not matter: a module matching
#: two layers is an error, not a tie to break.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": (
        "repro.sim",
        "repro.sim.engine",
        "repro.sim.scheduler",
        "repro.sim.task",
        "repro.sim.ops",
        "repro.sim.sync",
        "repro.sim.stats",
        "repro.sim.errors",
    ),
    "sim.cache": ("repro.sim.cache", "repro.sim.topology"),
    "locks": (
        "repro.locks",
        "repro.locks.base",
        "repro.locks.bravo",
        "repro.locks.cna",
        "repro.locks.cohort",
        "repro.locks.culling",
        "repro.locks.mcs",
        "repro.locks.mutex",
        "repro.locks.percpu_rwlock",
        "repro.locks.phase_fair",
        "repro.locks.qspinlock",
        "repro.locks.range_lock",
        "repro.locks.registry",
        "repro.locks.rwlock",
        "repro.locks.rwsem",
        "repro.locks.seqlock",
        "repro.locks.shfllock",
        "repro.locks.tas",
        "repro.locks.ticket",
    ),
    # The trampoline: the patchable call-site wrapper plus the patcher.
    "livepatch": ("repro.livepatch", "repro.livepatch.*", "repro.locks.switchable"),
    # Run time: the interpreter, its helpers and the maps programs touch.
    "bpf.vm": ("repro.bpf.vm", "repro.bpf.helpers", "repro.bpf.maps"),
    # Load time: compiling, representing and verifying programs.
    "bpf.verifier": (
        "repro.bpf",
        "repro.bpf.verifier",
        "repro.bpf.frontend",
        "repro.bpf.program",
        "repro.bpf.insn",
        "repro.bpf.errors",
    ),
    "concord": ("repro.concord", "repro.concord.*"),
    "controlplane": (
        "repro.controlplane",
        "repro.controlplane.adaptive",
        "repro.controlplane.admission",
        "repro.controlplane.baselines",
        "repro.controlplane.canary",
        "repro.controlplane.daemon",
        "repro.controlplane.guards",
        "repro.controlplane.lifecycle",
        "repro.controlplane.slo",
    ),
    "journal": ("repro.controlplane.journal", "repro.storage", "repro.storage.*"),
    "replication": ("repro.replication", "repro.replication.*"),
    "netsim": ("repro.netsim", "repro.netsim.*"),
    "fleet": ("repro.fleet", "repro.fleet.*"),
    "traffic": ("repro.traffic", "repro.traffic.*"),
    "workloads": ("repro.workloads", "repro.workloads.*"),
    "kernel": ("repro", "repro.kernel", "repro.kernel.*", "repro.userspace", "repro.userspace.*"),
    "faults": ("repro.faults", "repro.faults.*"),
    "tools": ("repro.tools", "repro.tools.*"),
}

OTHER = "other"

#: Public entry points whose call counts and cumulative times the traced
#: run reads.  A name lists every implementation of one interface.
ENTRY_POINTS = {
    "bpf.vm.run": (VM.run,),
    "bpf.verifier.verify": (Verifier.verify,),
    # A call site is patched by attaching hooks or switching its
    # implementation; Patcher.enable and Concord both go through these.
    "livepatch.patch": (
        SwitchableLock.attach_hooks,
        SwitchableLock.request_switch,
        SwitchableRWLock.attach_hooks,
        SwitchableRWLock.request_switch,
    ),
    "livepatch.enable": (Patcher.enable,),
    "controlplane.submit": (Concordd.submit,),
    "journal.append": (PolicyJournal.append, ReplicatedJournal.append),
    "journal.entries": (PolicyJournal.entries, ReplicatedJournal.entries),
    "replication.append": (ReplicaGroup.append,),
    "fleet.execute": (FleetCoordinator.execute,),
    "fleet.recover": (FleetCoordinator.recover,),
    "traffic.generate": (TraceGenerator.generate,),
    "kernel.run": (Kernel.run,),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def module_of(filename: str) -> Optional[str]:
    """Dotted ``repro`` module name of a source file, or None."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR + os.sep) or not path.endswith(".py"):
        return None
    parts = os.path.relpath(path, _REPRO_DIR)[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts)


def layers_matching(module: str) -> List[str]:
    return [
        layer
        for layer, globs in LAYERS.items()
        if any(fnmatch.fnmatchcase(module, glob) for glob in globs)
    ]


def layer_of(filename: str) -> str:
    """The layer owning a source file; ``other`` outside ``repro``."""
    module = module_of(filename)
    if module is None:
        return OTHER
    matches = layers_matching(module)
    if len(matches) != 1:
        raise ValueError(f"{module} maps to {len(matches)} layers: {matches}")
    return matches[0]


def repro_modules() -> List[str]:
    """Every module of the ``repro`` package, from its source tree."""
    modules = []
    for dirpath, _dirnames, filenames in os.walk(_REPRO_DIR):
        for filename in filenames:
            if filename.endswith(".py"):
                modules.append(module_of(os.path.join(dirpath, filename)))
    return sorted(modules)


def self_seconds(stats: Dict) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    totals = {layer: 0.0 for layer in LAYERS}
    totals[OTHER] = 0.0
    layer_cache: Dict[str, str] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        layer = layer_cache.get(filename)
        if layer is None:
            layer = layer_cache[filename] = layer_of(filename)
        totals[layer] += tottime
    return totals


def _key(fn) -> Tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def entry_point_stats(stats: Dict) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, cumulative seconds)`` for :data:`ENTRY_POINTS`."""
    out = {}
    for name, fns in ENTRY_POINTS.items():
        calls, cumulative = 0, 0.0
        for fn in fns:
            row = stats.get(_key(fn))
            if row is not None:
                calls += row[1]
                cumulative += row[3]
        out[name] = (calls, cumulative)
    return out

