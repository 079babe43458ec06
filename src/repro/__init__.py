"""Reproduction of "Contextual Concurrency Control" (HotOS '21).

The package implements the paper's Concord framework and every substrate
it needs, over a deterministic multicore simulator:

* :mod:`repro.sim` — discrete-event NUMA machine (cache-coherence cost
  model, per-CPU scheduling, park/wake-up);
* :mod:`repro.locks` — kernel lock algorithms (MCS, CNA, cohort,
  ShflLock, rwsem, BRAVO, per-CPU rw, phase-fair, ...) with the Table 1
  hook points;
* :mod:`repro.bpf` — eBPF-like VM, verifier, maps, helpers, and a
  restricted-Python policy compiler;
* :mod:`repro.livepatch` — run-time patching of lock call sites and
  shadow variables;
* :mod:`repro.kernel` — the simulated kernel (mm page-fault path, VFS);
* :mod:`repro.concord` — the paper's contribution: load/verify/attach
  userspace lock policies, switch lock implementations on the fly, and
  profile individual locks;
* :mod:`repro.workloads` — will-it-scale-style benchmarks reproducing
  the evaluation.

Quickstart::

    from repro import Kernel, Concord, paper_machine
    from repro.concord.policies import make_numa_policy

    kernel = Kernel(paper_machine(), seed=42)
    # ... register locks / build subsystems ...
    concord = Concord(kernel)
    concord.load_policy(make_numa_policy(lock_selector="*"))
"""

from . import bpf, concord, kernel, livepatch, locks, sim, userspace, workloads
from .concord import Concord, LockProfiler, PolicySpec
from .kernel import VFS, AddressSpace, Kernel
from .sim import Engine, LatencyModel, Topology, amp_machine, paper_machine

__version__ = "0.1.0"

__all__ = [
    "bpf",
    "concord",
    "kernel",
    "livepatch",
    "locks",
    "sim",
    "userspace",
    "workloads",
    "Concord",
    "LockProfiler",
    "PolicySpec",
    "VFS",
    "AddressSpace",
    "Kernel",
    "Engine",
    "LatencyModel",
    "Topology",
    "amp_machine",
    "paper_machine",
    "__version__",
]
