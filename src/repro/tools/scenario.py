"""The scenario kit: the worlds, checks, and fleet predicates that
``concordd``'s acceptance scenarios are written in.

A scenario is a list of phases, each a few actions followed by named
checks.  Everything a phase would otherwise hand-build lives here, once:

* **worlds** — :func:`shard_kernel` (a kernel with ``svc.shard*.lock``
  ShflLocks), :func:`spawn_shard_workload` (closed-loop workers pounding
  them), :func:`shard_fleet` (a quiet canary member plus busy members,
  each journaling to a file shard or to its own replica group; its
  workload re-armed by :func:`spawn_fleet_workload`) and
  :func:`pooled_fleet` (a three-kernel wave whose members defer to the
  coordinator's pooled guard);
* **timing** — :func:`rollout_windows`, :func:`wave_planner` and
  :func:`learn_placement` derive every fleet scenario's canary windows,
  wave shape and placement map from the same arguments;
* **checks** — :class:`Checks` prints each ``[ok]`` / ``[FAIL]`` line
  and the scenario's closing verdict, and turns them into an exit code;
  :func:`require` rejects a world too small for the scenario;
* **fleet predicates** — :func:`member_stock`, :func:`fleet_active` and
  :func:`fleet_events`, the questions most checks ask of a fleet, plus
  :func:`print_fleet_audit` for ``--audit``.

The fleet test files build their worlds from the same functions, so a
test fleet and a scenario fleet are the same thing.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional

from ..controlplane import PolicyJournal, PolicyState, SLOGuard
from ..fleet import FleetManager, PlacementMap, RolloutPlanner
from ..kernel import Kernel
from ..locks import ShflLock
from ..replication import ReplicaGroup
from ..sim import Topology, ops

__all__ = [
    "Checks",
    "fleet_active",
    "fleet_events",
    "learn_placement",
    "member_stock",
    "pooled_fleet",
    "print_fleet_audit",
    "require",
    "rollout_windows",
    "shard_fleet",
    "shard_kernel",
    "spawn_fleet_workload",
    "spawn_shard_workload",
    "wave_planner",
]


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
def shard_kernel(sockets: int, cores: int, seed: int, locks: int) -> Kernel:
    """A kernel with ``locks`` ShflLocks registered as ``svc.shard{i}.lock``
    (none for a world that registers its own locks)."""
    kernel = Kernel(Topology(sockets=sockets, cores_per_socket=cores), seed=seed)
    for index in range(locks):
        kernel.add_lock(
            f"svc.shard{index}.lock", ShflLock(kernel.engine, name=f"shard{index}")
        )
    return kernel


def spawn_shard_workload(kernel, stop_at: int, tasks_per_lock: int, cs_ns: int) -> List:
    """``tasks_per_lock`` closed-loop workers per ``svc.*.lock``, each
    holding its lock for ``cs_ns`` until sim time ``stop_at``; every
    worker counts its completed critical sections in ``stats["ops"]``."""
    tasks = []
    cpu = 0
    for name in kernel.locks.select_names("svc.*.lock"):
        site = kernel.locks.get(name)
        for _ in range(tasks_per_lock):

            def worker(task, site=site):
                task.stats["ops"] = 0
                while task.engine.now < stop_at:
                    yield from site.acquire(task)
                    yield ops.Delay(cs_ns)
                    yield from site.release(task)
                    task.stats["ops"] += 1
                    yield ops.Delay(120)

            tasks.append(kernel.spawn(worker, cpu=cpu % kernel.topology.nr_cpus))
            cpu += 1
    return tasks


def shard_fleet(args, journal_dir: Optional[str] = None, fabric=None):
    """``--kernels`` members -> ``(fleet, groups)``.

    k0 is quiet (two locks: the canary pick), the rest busy
    (``--locks`` locks); member ``kI`` runs seed ``--seed + I`` under a
    ``--max-regression`` SLO guard, with :func:`spawn_fleet_workload`
    running.  With ``journal_dir`` each member journals to its own file
    shard there and ``groups`` is empty.  Without, each journals to its
    own ``--sites``-way replica group (``groups[kI]``), whose traffic
    crosses ``fabric`` (endpoint ``kI`` -> ``kI/siteJ``), or the
    group's own flat fabric when none is given.
    """
    fleet = FleetManager()
    groups: Dict[str, ReplicaGroup] = {}
    for index in range(args.kernels):
        name = f"k{index}"
        kernel = shard_kernel(
            args.sockets, args.cores, args.seed + index, args.locks if index else 2
        )
        if journal_dir is not None:
            path = os.path.join(journal_dir, f"journal.{name}.jsonl")
            store = {"journal": PolicyJournal(path)}
        else:
            groups[name] = ReplicaGroup(name, nr_sites=args.sites, fabric=fabric)
            store = {"replica_group": groups[name]}
        fleet.register(
            name,
            kernel,
            guard=SLOGuard(max_avg_wait_regression=args.max_regression),
            canary_fraction=0.5,
            **store,
        )
    spawn_fleet_workload(fleet, args)
    return fleet, groups


def spawn_fleet_workload(fleet, args) -> None:
    """(Re-)arm every member's shard workload for another
    ``--duration-ms``: one worker per lock on the quiet k0,
    ``--tasks-per-lock`` on the busy members.  Each rollout burns
    simulated time, and a guard judging a drained workload sees
    starvation, not the policy."""
    for member in fleet.members():
        per_lock = 1 if member.name == "k0" else args.tasks_per_lock
        kernel = member.kernel
        spawn_shard_workload(kernel, kernel.now + args.duration_ns, per_lock, args.cs_ns)


def pooled_fleet(args, journal_dir: str, journal_prefix: str, build_kernel) -> FleetManager:
    """Three members k0..k2 for a single pooled-verdict wave.

    Member ``kI`` runs ``build_kernel(--seed + 1 + I)`` and journals to
    ``<journal_prefix>.kI.jsonl`` under ``journal_dir``.  Its own guard
    never reaches readiness (the threshold is out of reach of any one
    kernel's canary window), so every member verdict defers and only
    the coordinator's pooled cross-kernel guard decides.
    """
    fleet = FleetManager()
    for index in range(3):
        name = f"k{index}"
        path = os.path.join(journal_dir, f"{journal_prefix}.{name}.jsonl")
        fleet.register(
            name,
            build_kernel(args.seed + 1 + index),
            guard=SLOGuard(min_acquisitions=10**9),
            canary_fraction=0.5,
            journal=PolicyJournal(path),
        )
    return fleet


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def rollout_windows(args) -> Dict[str, int]:
    """A fleet scenario's per-member canary timing, a tenth of
    ``--duration-ms`` per baseline window."""
    window = args.duration_ns // 10
    return dict(baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 4)


def wave_planner(args, **verdict) -> RolloutPlanner:
    """One canary kernel, then waves ``--max-concurrent-kernels`` wide,
    each baking half a window; ``verdict`` picks the fleet verdict mode."""
    return RolloutPlanner(
        max_concurrent_kernels=args.max_concurrent_kernels,
        canary_kernels=1,
        bake_ns=args.duration_ns // 20,
        **verdict,
    )


def learn_placement(fleet, args) -> PlacementMap:
    """Profile every member's shard locks for a twentieth of
    ``--duration-ms`` and rank the members by blast radius."""
    return PlacementMap.learn(fleet, "svc.*.lock", window_ns=args.duration_ns // 20)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checks:
    """A scenario's check recorder.

    Calling it prints one ``  [ok] what`` or ``  [FAIL] what`` line and
    remembers the failures; :meth:`verdict` prints the closing line and
    returns the scenario's exit status.
    """

    def __init__(self) -> None:
        self.failures: List[str] = []

    def __call__(self, ok, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            self.failures.append(what)

    def verdict(self, scenario: str, passed: str) -> int:
        """0 after printing ``<scenario> <passed>`` when every check
        passed; otherwise 1, after listing the failed checks on stderr."""
        if self.failures:
            print(
                f"\n{scenario} FAILED ({len(self.failures)} check(s)):", file=sys.stderr
            )
            for failure in self.failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"\n{scenario} {passed}")
        return 0


def require(scenario: str, flag: str, value: int, minimum: int, why: str = "") -> bool:
    """False, after printing the usage error, when ``value < minimum``."""
    if value >= minimum:
        return True
    print(f"error: {scenario} scenario needs {flag} >= {minimum}{why}", file=sys.stderr)
    return False


# ----------------------------------------------------------------------
# Fleet predicates
# ----------------------------------------------------------------------
def member_stock(fleet, name: str, policy: str) -> bool:
    """``policy`` is neither live on member ``name`` nor loaded in its kernel."""
    member = fleet.member(name)
    record = member.daemon.records.get(policy)
    return (record is None or not record.live) and policy not in member.concord.policies


def fleet_active(fleet, policy: str, kernels=None) -> bool:
    """``policy`` is ACTIVE on every member named in ``kernels`` (default:
    the whole fleet)."""
    names = fleet.names() if kernels is None else kernels
    return all(
        (record := fleet.member(k).daemon.records.get(policy)) is not None
        and record.state is PolicyState.ACTIVE
        for k in names
    )


def fleet_events(journal, event: str) -> List[dict]:
    """A fleet journal's ``kind == "fleet"`` entries of one ``event``,
    oldest first."""
    return [
        e
        for e in journal.entries()
        if e.get("kind") == "fleet" and e.get("event") == event
    ]


def print_fleet_audit(fleet) -> None:
    """Every member's daemon audit log, one titled block per member."""
    for member in fleet.members():
        print(f"\naudit log ({member.name}):")
        print(member.daemon.audit.format())
