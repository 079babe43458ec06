"""The ``concordd`` CLI: scripted control-plane rollout scenarios.

Usage::

    python -m repro.tools.concordd rollout
    python -m repro.tools.concordd rollout --locks 8 --seed 3 --audit
    python -m repro.tools.concordd drill --seed 5

The ``rollout`` scenario is the acceptance path for the control plane:
two clients share one kernel running a contended shard workload;
*alice* submits a **bad NUMA policy** (anti-NUMA waiter grouping plus an
expensive per-acquisition accounting program — Table 1's "increase
critical section" hazard), *bob* submits the paper's **good NUMA
policy**.  Both roll out through the canary engine; the SLO guard must
catch alice's policy mid-benchmark and roll it back, while bob's reaches
ACTIVE fleet-wide.  Exit status 0 means exactly that happened.

The ``drill`` scenario is the acceptance path for the robustness layer:
it kills the daemon (:class:`~repro.faults.InjectedCrash`) mid-canary
under an adversarial fault plan, restarts it over the same journal,
and asserts :meth:`Concordd.recover` restores the world — the healthy
ACTIVE policy re-attached with the same hook programs and lock impls,
the crashed canary ROLLED_BACK with its installation gone, journal and
audit in agreement — then trips the runtime circuit breaker on the
survivor and asserts fail-open degradation to stock lock behaviour.

Every scenario is written in the scenario kit (:mod:`.scenario`): its
worlds, checks, and fleet predicates are built there, once, and each
subcommand's options come from one argument table (``_OPTIONS``).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from ..bpf.maps import HashMap
from ..concord import Concord
from ..concord.policies import make_numa_policy
from ..concord.policy import PolicySpec
from ..controlplane import (
    AdaptationLoop,
    AllOf,
    Concordd,
    FairnessGuard,
    PolicyJournal,
    PolicyState,
    PolicySubmission,
    SLOGuard,
    TailWaitGuard,
    culling_impl_factory,
)
from ..controlplane.journal import JournalCorruption
from ..faults import (
    SITE_ADAPTIVE_PROPOSE,
    SITE_NET_LINK_DELIVER,
    SITE_NET_PARTITION_FLIP,
    SITE_REPLICATION_APPEND,
    FaultPlan,
    InjectedCrash,
    injected,
)
from ..fleet import FleetCoordinator, FleetRolloutState, HealthMonitor
from ..fleet.planner import FleetPlan, WaveSpec
from ..locks import MCSLock, SpinParkMutex
from ..locks.culling import CullingLock
from ..locks.base import HOOK_CMP_NODE, HOOK_LOCK_ACQUIRED
from ..netsim import Fabric, LinkModel, PartitionEvent, PartitionSchedule
from ..replication import (
    ReplicaGroup,
    SerializationLedger,
    SiteState,
    SiteUnreadable,
    StaleLeaderFenced,
    TxnStatus,
)
from ..sim import Topology
from ..storage import Scrubber, flip_byte, fold_entries
from ..traffic import (
    LockBinding,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)
from ..userspace import PolicyClient
from ..workloads import MalthusianBench, format_sweep_table, knee_threads, sweep
from .scenario import (
    Checks,
    fleet_active,
    fleet_events,
    learn_placement,
    member_stock,
    pooled_fleet,
    print_fleet_audit,
    require,
    rollout_windows,
    shard_fleet,
    shard_kernel,
    spawn_fleet_workload,
    spawn_shard_workload,
    wave_planner,
)

__all__ = [
    "main",
    "build_parser",
    "bad_numa_submission",
    "tail_spike_submission",
    "run_adapt_scenario",
    "run_rollout_scenario",
    "run_drill_scenario",
    "run_fleet_scenario",
    "run_fleet_degraded_scenario",
    "run_guards_scenario",
    "run_partition_scenario",
    "run_replicated_scenario",
    "run_scrub_scenario",
    "run_traffic_scenario",
]

#: Anti-NUMA grouping: prefer waiters from the *other* socket — exactly
#: backwards from ShflLock's point, so handoffs bounce the cache line
#: across the interconnect.
ANTI_NUMA_SOURCE = """
def anti_numa(ctx):
    return ctx.curr_socket != ctx.shuffler_socket
"""

#: A per-acquisition "NUMA accounting" program fat enough to matter:
#: runs with the lock held (Table 1: increase critical section).
NUMA_AUDIT_SOURCE = """
def numa_audit(ctx):
    acc = 0
    for i in range(60):
        acc = acc + ctx.socket
        acc = acc ^ i
    return 0
"""


def bad_numa_submission(lock_selector: str, name: str = "bad-numa") -> PolicySubmission:
    """The scenario's misbehaving policy bundle."""
    return PolicySubmission(
        specs=(
            PolicySpec(
                name=name,
                hook=HOOK_CMP_NODE,
                source=ANTI_NUMA_SOURCE,
                lock_selector=lock_selector,
            ),
            PolicySpec(
                name=f"{name}.audit",
                hook=HOOK_LOCK_ACQUIRED,
                source=NUMA_AUDIT_SOURCE,
                lock_selector=lock_selector,
            ),
        ),
    )


#: A tail-spike policy: cheap bookkeeping on every acquisition, plus an
#: expensive "audit" burn on every 64th — rare enough to leave the mean
#: wait nearly untouched, heavy enough to multiply the p99.  This is the
#: regression class an average-based SLO guard is structurally blind to.
TAIL_SPIKE_SOURCE = """
def tail_spike(ctx):
    if ctx.lock_id == target.lookup(0):
        n = seen.lookup(ctx.lock_id) + 1
        seen.update(ctx.lock_id, n)
        if n % 32 == 0:
            acc = 0
            for i in range(60):
                acc = acc + i
                acc = acc ^ n
    return 0
"""

#: Second half of the spike: a separate program (own verifier insn
#: budget) reading the same counter, so the combined burn is twice what
#: any single program may cost.
TAIL_SPIKE_ECHO_SOURCE = """
def tail_spike_echo(ctx):
    if ctx.lock_id == target.lookup(0):
        n = seen.lookup(ctx.lock_id)
        if n % 32 == 0:
            acc = 0
            for i in range(60):
                acc = acc + i
                acc = acc ^ n
    return 0
"""


def tail_spike_submission(
    target_lock_id: int,
    lock_selector: str = "svc.*.lock",
    name: str = "tail-spike",
) -> PolicySubmission:
    """A policy whose damage is confined to one lock's tail latency.

    The selector covers the whole shard set (so the canary set can
    include healthy locks that keep the *average* in budget) but the
    burn fires only on ``target_lock_id``, pre-seeded into the policy's
    config map, and only on every 32nd acquisition — the mean barely
    moves, the p99 multiplies.
    """
    target = HashMap(f"{name}.target", max_entries=4)
    target.update(0, target_lock_id)
    seen = HashMap(f"{name}.seen", max_entries=65536)
    maps = {"seen": seen, "target": target}
    return PolicySubmission(
        specs=(
            PolicySpec(
                name=name,
                hook=HOOK_LOCK_ACQUIRED,
                source=TAIL_SPIKE_SOURCE,
                maps=dict(maps),
                lock_selector=lock_selector,
            ),
            PolicySpec(
                name=f"{name}.echo",
                hook=HOOK_LOCK_ACQUIRED,
                source=TAIL_SPIKE_ECHO_SOURCE,
                maps=dict(maps),
                lock_selector=lock_selector,
            ),
        ),
    )


def _on_each_kernel(args, scenario: str, run_once) -> int:
    """Run ``run_once(index, seed)`` on ``--kernels`` independent
    kernels, kernel ``index`` seeded ``--seed + index`` — every one must
    pass.  One kernel (the default) prints no per-kernel header."""
    if not require(scenario, "--kernels", args.kernels, 1):
        return 2
    status = 0
    for index in range(args.kernels):
        seed = args.seed + index
        if args.kernels > 1:
            if index:
                print()
            print(f"=== kernel k{index} (seed {seed}) ===")
        if run_once(index, seed) != 0:
            status = 1
    return status


def run_rollout_scenario(args) -> int:
    """One kernel by default; ``--kernels N`` repeats the scenario on N
    independent kernels (seed offset per kernel) — every one must pass."""
    return _on_each_kernel(args, "rollout", lambda index, seed: _rollout_once(args, seed))


def _rollout_once(args, seed: int) -> int:
    kernel = shard_kernel(args.sockets, args.cores, seed, args.locks)
    concord = Concord(kernel)
    daemon = Concordd(
        concord,
        guard=SLOGuard(max_avg_wait_regression=args.max_regression),
        canary_fraction=0.5,
    )
    alice = PolicyClient.connect(daemon, "alice", allowed_selectors=("svc.*",))
    bob = PolicyClient.connect(daemon, "bob", allowed_selectors=("svc.*",))

    stop_at = kernel.now + args.duration_ns
    tasks = spawn_shard_workload(kernel, stop_at, args.tasks_per_lock, args.cs_ns)

    window = args.duration_ns // 8
    windows = dict(baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 4)
    alice.submit(bad_numa_submission("svc.*.lock"))
    bad = alice.rollout("bad-numa", **windows)
    bob.submit(
        PolicySubmission(
            spec=make_numa_policy(lock_selector="svc.*.lock", name="numa-good")
        )
    )
    good = bob.rollout("numa-good", **windows)
    kernel.run()  # drain the workload

    print(f"bad policy  : {bad.state.name:<12} {bad.verdict.describe()}")
    print(f"good policy : {good.state.name:<12} {good.verdict.describe()}")
    stalled = [t for t in tasks if t.stats.get("ops", 0) == 0]
    print(
        f"workload    : {len(tasks)} tasks, "
        f"{sum(t.stats.get('ops', 0) for t in tasks)} ops, "
        f"{len(stalled)} stalled"
    )
    if args.audit:
        print("\naudit log:")
        print(daemon.audit.format())

    ok = (
        bad.state is PolicyState.ROLLED_BACK
        and good.state is PolicyState.ACTIVE
        and not stalled
    )
    if not ok:
        print("scenario FAILED: expected bad-numa ROLLED_BACK + numa-good ACTIVE", file=sys.stderr)
    return 0 if ok else 1


#: The drill's healthy workhorse policy: per-acquisition metering.
STEADY_SOURCE = """
def steady(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def _spin_park(old):
    """The drill's implementation switch (registered as ``spin_park``)."""
    return SpinParkMutex(old.engine, name=f"sp.{old.name}")


def _steady_submission(name: str = "steady") -> PolicySubmission:
    return PolicySubmission(
        spec=PolicySpec(
            name=name,
            hook=HOOK_LOCK_ACQUIRED,
            source=STEADY_SOURCE.replace("steady", name.replace("-", "_")),
            maps={"hits": HashMap(f"{name}.hits", max_entries=65536)},
            lock_selector="svc.*.lock",
        ),
    )


def _doomed_submission() -> PolicySubmission:
    return PolicySubmission(
        spec=PolicySpec(
            name="doomed",
            hook=HOOK_LOCK_ACQUIRED,
            source=STEADY_SOURCE.replace("steady", "doomed"),
            maps={"hits": HashMap("doomed.hits", max_entries=65536)},
            lock_selector="svc.*.lock",
        ),
        impl_factory=_spin_park,
        impl_name="spin_park",
    )


def run_drill_scenario(args) -> int:
    """One kernel by default; ``--kernels N`` drills N independent
    kernels, each over its own journal shard (``<path>.kI``)."""

    def drill(index, seed):
        journal = args.journal
        if journal is not None and args.kernels > 1:
            journal = f"{journal}.k{index}"
        return _drill_once(args, seed, journal)

    return _on_each_kernel(args, "drill", drill)


def _drill_once(args, seed: int, journal: str | None) -> int:
    journal_path = journal or os.path.join(
        tempfile.mkdtemp(prefix="concordd-drill-"), "journal.jsonl"
    )
    registry = {"spin_park": _spin_park}
    kernel = shard_kernel(args.sockets, args.cores, seed, args.locks)
    concord = Concord(kernel, fault_threshold=5)
    selector_locks = kernel.locks.select_names("svc.*.lock")
    original_impls = {
        name: kernel.locks.get(name).core.impl for name in selector_locks
    }
    check = Checks()

    daemon_a = Concordd(
        concord,
        guard=SLOGuard(max_avg_wait_regression=0.50),
        journal=PolicyJournal(journal_path),
        impl_registry=registry,
    )
    ops_client = PolicyClient.connect(daemon_a, "ops", allowed_selectors=("svc.*",))
    window = args.duration_ns // 8
    tasks = spawn_shard_workload(
        kernel, kernel.now + args.duration_ns, args.tasks_per_lock, args.cs_ns
    )

    # -- phase 1: a healthy policy reaches ACTIVE ----------------------
    print(f"phase 1: steady policy rollout (journal: {journal_path})")
    ops_client.submit(_steady_submission())
    steady_a = ops_client.rollout("steady", baseline_ns=window, canary_ns=window)
    check(steady_a.state is PolicyState.ACTIVE, "steady is ACTIVE")
    steady_programs = {
        name: concord.policies[name].program for name in ("steady",)
    }

    # -- phase 2: kill -9 mid-canary under an adversarial plan ---------
    print("phase 2: daemon killed mid-canary (adversarial fault plan)")
    kill_plan = FaultPlan(seed=seed, name="kill9")
    kill_plan.crash("controlplane.canary.checkpoint", after=1)
    kill_plan.stall("livepatch.drain", delay_ns=4 * window, times=4)
    ops_client.submit(_doomed_submission())
    crashed = False
    try:
        with injected(kill_plan):
            ops_client.rollout(
                "doomed",
                baseline_ns=window,
                canary_ns=4 * window,
                check_every_ns=window // 2,
            )
    except InjectedCrash:
        crashed = True
    daemon_a.detach()  # the process is gone; nothing was torn down
    check(crashed, "InjectedCrash unwound the rollout, no teardown ran")
    check("doomed" in concord.policies, "doomed's canary programs still loaded")
    check(bool(kernel.patcher.active), "doomed's impl patches still active")

    # -- phase 3: restart + recover under verifier flakes --------------
    print("phase 3: new daemon recovers from the journal (flaky verifier)")
    daemon_b = Concordd(
        concord,
        guard=SLOGuard(max_avg_wait_regression=0.50),
        journal=PolicyJournal(journal_path),
        impl_registry=registry,
    )
    flake_plan = FaultPlan(seed=seed, name="flaky-recovery")
    flake_plan.fail("concord.verifier", times=2)
    with injected(flake_plan):
        summary = daemon_b.recover()
    steady_b = daemon_b.status("steady")
    doomed_b = daemon_b.status("doomed")
    check(summary["reattached"] == ["steady"], "recover() re-attached steady")
    check(steady_b.state is PolicyState.ACTIVE, "steady still ACTIVE after recovery")
    check(
        concord.policies["steady"].program is steady_programs["steady"]
        and sorted(concord.policies["steady"].attached_locks) == selector_locks,
        "steady's hook program unchanged and attached to every target lock",
    )
    check(doomed_b.state is PolicyState.ROLLED_BACK, "doomed is ROLLED_BACK")
    check(not kernel.patcher.active, "doomed's impl patches reverted")
    check(
        flake_plan.fired["concord.verifier"] == 2,
        "recovery retried through 2 injected verifier flakes",
    )
    journal = PolicyJournal(journal_path)
    check(
        journal.last_transition("steady")["to"] == steady_b.state.name
        and journal.last_transition("doomed")["to"] == doomed_b.state.name,
        "journal and audit agree on both final states",
    )
    kernel.run(until=kernel.now + window)  # let revert drains finish
    check(
        all(
            kernel.locks.get(name).core.impl is original_impls[name]
            for name in selector_locks
        ),
        "every lock is back on its pre-drill implementation",
    )

    # -- phase 4: trip the circuit breaker on the survivor -------------
    # Three equal windows on the still-running workload: policy attached
    # and healthy, then faulting (the breaker trips within the first few
    # acquisitions), then pure stock.  Stock out-producing the attached
    # window is the measurable revert: no trampoline dispatch and no
    # hook program left on the acquisition path.
    print("phase 4: runtime faults trip the breaker (fail-open)")

    def total_ops():
        return sum(t.stats.get("ops", 0) for t in tasks)

    start_ops = total_ops()
    kernel.run(until=kernel.now + window)
    active_ops = total_ops() - start_ops  # window 1: policy attached
    fault_plan = FaultPlan(seed=seed, name="helper-faults")
    fault_plan.fail("bpf.helper", times=None, match={"program": "steady*"})
    with injected(fault_plan):
        kernel.run(until=kernel.now + window)  # window 2: faults trip it
    after_faulting = total_ops()
    kernel.run(until=kernel.now + window)
    stock_ops = total_ops() - after_faulting  # window 3: pure stock
    check(steady_b.state is PolicyState.ROLLED_BACK, "breaker rolled steady back")
    check("steady" not in concord.policies, "steady's programs detached")
    check(
        all(not concord.chain(name, HOOK_LOCK_ACQUIRED) for name in selector_locks),
        "no hook chain left on any lock (stock behaviour)",
    )
    check(
        stock_ops >= active_ops,
        f"stock lock out-produces the policy-attached window "
        f"({stock_ops} vs {active_ops} ops): the detach is measurable",
    )
    check(
        PolicyJournal(journal_path).last_transition("steady")["to"] == "ROLLED_BACK",
        "the fail-open rollback was journaled",
    )

    kernel.run()  # drain the workload
    if args.audit:
        print("\naudit log:")
        print(daemon_b.audit.format())
    return check.verdict("drill", "passed: crash, recovery, and fail-open all behaved")


def _good_numa_factory(member) -> PolicySubmission:
    return PolicySubmission(
        spec=make_numa_policy(lock_selector="svc.*.lock", name="numa-good")
    )


def run_fleet_scenario(args) -> int:
    """The fleet acceptance path: one policy, many kernels, waves.

    Three phases over ``--kernels`` independent kernels (k0 quiet, the
    rest busy, so blast radius picks k0 as the canary wave):

    1. the **bad** NUMA policy survives the quiet canary kernel, then
       breaches the busy cohort's SLO guards — the fleet verdict halts
       the rollout and reverts every already-patched kernel to stock;
    2. the **good** NUMA policy walks the same waves to fleet-wide
       ACTIVE;
    3. a **mid-wave crash** (``kill -9`` entering wave 1) leaves a
       partial fleet; a fresh coordinator over the on-disk journals
       resumes wave 1 and converges — never a split fleet.
    """
    if not require("fleet", "--kernels", args.kernels, 3):
        return 2
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="concordd-fleet-")
    fleet_journal_path = os.path.join(journal_dir, "fleet.jsonl")
    check = Checks()
    fleet, _ = shard_fleet(args, journal_dir)

    print(f"fleet of {len(fleet)} kernels (journals: {journal_dir})")
    placement = learn_placement(fleet, args)
    print(placement.describe())

    windows = rollout_windows(args)
    planner = wave_planner(args)
    coordinator = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))

    # -- phase 1: bad policy halts the fleet ---------------------------
    print("\nphase 1: bad NUMA policy — cross-kernel breach must halt the fleet")
    plan = planner.plan("bad-numa", placement)
    print(plan.describe())
    check(len(plan.waves) >= 2, f"plan rolls out in {len(plan.waves)} waves")
    check(
        plan.waves[0].canary and plan.waves[0].kernels == ["k0"],
        "canary wave is the lowest-blast-radius kernel (k0)",
    )
    bad = coordinator.execute(
        plan, lambda member: bad_numa_submission("svc.*.lock"), **windows
    )
    print(bad.describe())
    check(bad.state is FleetRolloutState.HALTED, "fleet verdict HALTED the rollout")
    check(
        any(state != "ACTIVE" for state in bad.outcomes.values()),
        "at least one cohort kernel breached its canary",
    )
    check(
        all(member_stock(fleet, k, "bad-numa") for k in fleet.names()),
        "every patched kernel reverted to stock",
    )

    # -- phase 2: good policy goes fleet-wide --------------------------
    print("\nphase 2: good NUMA policy — same waves, fleet-wide ACTIVE")
    plan = planner.plan("numa-good", placement)
    good = coordinator.execute(plan, _good_numa_factory, **windows)
    print(good.describe())
    check(good.state is FleetRolloutState.COMPLETE, "rollout COMPLETE")
    check(fleet_active(fleet, "numa-good"), "numa-good ACTIVE on every kernel")

    # -- phase 3: mid-wave crash, recover from journals ----------------
    print("\nphase 3: daemon killed between waves; recovery resumes, never splits")
    plan = planner.plan("steady", placement)
    kill_plan = FaultPlan(seed=args.seed, name="fleet-kill9")
    kill_plan.crash("fleet.wave.checkpoint", after=1, times=1)
    crashed = False
    try:
        with injected(kill_plan):
            coordinator.execute(plan, lambda member: _steady_submission(), **windows)
    except InjectedCrash:
        crashed = True
    check(crashed, "InjectedCrash killed the coordinator entering wave 1")
    wave0 = plan.waves[0].kernels
    check(
        fleet_active(fleet, "steady", wave0)
        and all(
            "steady" not in fleet.member(k).daemon.records
            for k in plan.kernels()
            if k not in wave0
        ),
        "crash left a partial fleet (wave 0 patched, later waves not)",
    )
    fresh = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    resumed = fresh.recover(lambda member: _steady_submission(), **windows)
    print(resumed.describe() if resumed is not None else "recovery: nothing in flight")
    check(
        resumed is not None and resumed.state is FleetRolloutState.COMPLETE,
        "recovery resumed the remaining waves to COMPLETE",
    )
    check(
        resumed is not None and resumed.resumed_from_wave == 1,
        "recovery resumed from wave 1 (completed wave trusted)",
    )
    check(fleet_active(fleet, "steady"), "steady ACTIVE on every kernel — no split fleet")

    if args.audit:
        print_fleet_audit(fleet)
    return check.verdict(
        "fleet scenario",
        "passed: halt-and-revert, fleet-wide rollout, "
        "and mid-wave crash recovery all behaved",
    )


def _kill_member_at_bake(victim: str, seed: int) -> FaultPlan:
    """A persistent outage: the victim answers once more (so it gets
    patched), then every later call to it fails — died mid-wave."""
    plan = FaultPlan(seed=seed, name=f"kill-{victim}")
    plan.fail(
        "fleet.member.call",
        times=None,
        after=1,
        match={"kernel": victim, "op": "bake"},
    )
    return plan


def run_fleet_degraded_scenario(args) -> int:
    """The fleet-health acceptance path: a member dies mid-wave.

    Four phases over ``--kernels`` kernels (minimum 4, so a 0.5 quorum
    survives one dead member; k0 quiet, the rest busy):

    1. **health probes**: every member answers its liveness probe
       (daemon responds, kernel clock advances, journal shard
       appendable) and heartbeats its own journal shard;
    2. **any-breach + death**: one cohort member is killed at its bake;
       the unreachable member breaches the fleet verdict, the rollout
       halts, the victim is quarantined with its installed policy
       journaled as revert debt, and every *reachable* kernel converges
       to stock;
    3. **reinstate + recover**: a fresh coordinator over the same fleet
       journal unwinds the halted rollout, rebuilds the debt ledger
       from the journal, and drains it — the victim comes back at a
       higher epoch, stock like everyone else;
    4. **quorum + death, then heal**: a 0.5-quorum rollout with the
       same member killed again completes *degraded* (survivors at
       plan, the victim quarantined as journaled debt); after a second
       reinstate + recover the debt is drained and a fresh fleet-wide
       rollout reaches ACTIVE on every kernel.
    """
    if not require("fleet-degraded", "--kernels", args.kernels, 4):
        return 2
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="concordd-degraded-")
    fleet_journal_path = os.path.join(journal_dir, "fleet.jsonl")
    check = Checks()
    fleet, _ = shard_fleet(args, journal_dir)
    print(f"fleet of {len(fleet)} kernels (journals: {journal_dir})")

    placement = learn_placement(fleet, args)
    windows = rollout_windows(args)

    # -- phase 1: everyone answers the health probe --------------------
    print("\nphase 1: liveness probes — daemon, clock, journal shard")
    monitor = HealthMonitor(fleet)
    probes = monitor.probe_all()
    check(
        len(probes) == len(fleet) and all(r.ok for r in probes.values()),
        f"all {len(probes)} members probe HEALTHY",
    )
    check(
        all(
            any(e.get("kind") == "heartbeat" for e in m.journal.entries())
            for m in fleet.members()
        ),
        "every member heartbeat reached its own journal shard",
    )

    # -- phase 2: any-breach rollout, one member dies at its bake ------
    print("\nphase 2: any-breach rollout — a cohort member dies mid-wave")
    coordinator = FleetCoordinator(
        fleet, journal=PolicyJournal(fleet_journal_path), health=monitor
    )
    plan = wave_planner(args).plan("steady", placement)
    victim = plan.waves[1].kernels[0]
    print(f"victim: {victim} (killed after it is patched, before its bake)")
    with injected(_kill_member_at_bake(victim, args.seed)):
        halted = coordinator.execute(
            plan, lambda member: _steady_submission(), **windows
        )
    print(halted.describe())
    check(
        halted.state is FleetRolloutState.HALTED,
        "any-breach verdict HALTED the rollout",
    )
    check(halted.unreachable_kernels() == [victim], f"{victim} recorded UNREACHABLE")
    check(fleet.is_quarantined(victim), f"{victim} quarantined")
    check(
        [(d["kernel"], d["policy"]) for d in coordinator.debt]
        == [(victim, "steady")],
        "the victim's installed policy is booked as revert debt",
    )
    journal = PolicyJournal(fleet_journal_path)
    check(
        all(fleet_events(journal, e) for e in ("member-dead", "quarantine", "revert-debt")),
        "member-dead, quarantine, and revert-debt all journaled",
    )
    check(
        all(member_stock(fleet, k, "steady") for k in plan.kernels() if k != victim),
        "every reachable kernel converged to stock",
    )

    # -- phase 3: reinstate, recover, drain the debt -------------------
    print("\nphase 3: reinstate + recover — journaled debt is drained")
    epoch_before = fleet.member(victim).epoch
    fresh = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    fresh.reinstate(victim)
    recovered = fresh.recover(lambda member: _steady_submission(), **windows)
    print(recovered.describe() if recovered is not None else "recovery: nothing in flight")
    check(
        recovered is not None and recovered.state is FleetRolloutState.UNWOUND,
        "recovery unwound the halted rollout",
    )
    check(not fresh.debt, "revert debt drained after reinstatement")
    check(
        fleet_events(PolicyJournal(fleet_journal_path), "debt-drained"),
        "the drain was journaled (debt-drained)",
    )
    check(
        fleet.member(victim).epoch > epoch_before,
        f"{victim} reinstated at a higher epoch "
        f"({epoch_before} -> {fleet.member(victim).epoch})",
    )
    check(
        all(member_stock(fleet, k, "steady") for k in plan.kernels()),
        "the whole fleet — victim included — is uniformly stock",
    )

    # -- phase 4: quorum completes degraded, then the fleet heals ------
    print("\nphase 4: quorum rollout — the fleet completes degraded, then heals")
    coordinator = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    plan = wave_planner(args, verdict_mode="quorum", quorum=args.quorum).plan(
        "steady", placement
    )
    victim = plan.waves[1].kernels[0]
    with injected(_kill_member_at_bake(victim, args.seed)):
        degraded = coordinator.execute(
            plan, lambda member: _steady_submission(), **windows
        )
    print(degraded.describe())
    check(
        degraded.state is FleetRolloutState.COMPLETE,
        f"quorum ({args.quorum}) completed the rollout degraded",
    )
    check(
        degraded.unreachable_kernels() == [victim]
        and fleet.is_quarantined(victim),
        f"{victim} unreachable and quarantined, debt booked",
    )
    survivors = [k for k in plan.kernels() if k != victim]
    check(
        fleet_active(fleet, "steady", survivors),
        "every reachable kernel is at plan (steady ACTIVE)",
    )
    healer = FleetCoordinator(fleet, journal=PolicyJournal(fleet_journal_path))
    healer.reinstate(victim)
    healer.recover(lambda member: _steady_submission(), **windows)
    check(not healer.debt, "second reinstate + recover drained the debt")
    final_plan = wave_planner(args).plan("numa-good", placement)
    final = healer.execute(final_plan, _good_numa_factory, **windows)
    print(final.describe())
    check(
        final.state is FleetRolloutState.COMPLETE
        and fleet_active(fleet, "numa-good", final_plan.kernels()),
        "healed fleet: fresh rollout ACTIVE on every kernel",
    )

    if args.audit:
        print_fleet_audit(fleet)
    return check.verdict(
        "fleet-degraded scenario",
        "passed: probes, quarantine, epoch fencing, "
        "revert debt, and degraded quorum all behaved",
    )


def _every_kernel_stock(fleet) -> bool:
    """No policy is live on any member."""
    return all(
        not record.live
        for member in fleet.members()
        for record in member.daemon.records.values()
    )


def _pooled_wave(policy: str, canary_locks, bake_ns: int) -> FleetPlan:
    """One canary wave over all three members of a :func:`pooled_fleet`."""
    return FleetPlan(
        policy,
        [WaveSpec(index=0, kernels=["k0", "k1", "k2"], canary=True, bake_ns=bake_ns)],
        canary_locks={f"k{i}": list(canary_locks) for i in range(3)},
    )


def run_guards_scenario(args) -> int:
    """The guard-library acceptance path, in two phases.

    1. **Tail blindness.**  One kernel, ``--locks`` shard locks, the
       tail-spike policy attached to ``svc.shard0.lock`` only.  The
       canary-set *average* wait stays inside the 20 % budget (the old
       ``SLOGuard`` passes on the very same reports) while shard0's p99
       multiplies — the ``TailWaitGuard`` trips and its breach names the
       lock, the metric, and observed-vs-budget.
    2. **Pooled fleet verdict.**  The same policy rolls onto a 3-kernel
       wave whose members' guards each need more canary samples than
       any one kernel sees — every member promotes on verifier trust —
       but the coordinator's pooled guard, fed the wave's *summed*
       histograms, crosses readiness and trips; the fleet halts and
       reverts, the breach naming all three kernels.
    """
    check = Checks()

    # -- phase 1: one lock's p99 regresses, averages stay in budget ----
    print("phase 1: tail-spike on shard0 — avg guard blind, tail guard trips")
    kernel = shard_kernel(args.sockets, args.cores, args.seed, args.locks)
    concord = Concord(kernel)
    daemon = Concordd(
        concord,
        guard=TailWaitGuard(max_tail_regression=args.max_tail_regression),
        canary_fraction=0.5,
    )
    alice = PolicyClient.connect(daemon, "alice", allowed_selectors=("svc.*",))
    stop_at = kernel.now + args.duration_ns
    spawn_shard_workload(kernel, stop_at, args.tasks_per_lock, args.cs_ns)

    window = args.duration_ns // 4
    windows = dict(baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 2)
    canary_locks = [f"svc.shard{i}.lock" for i in range(min(2, args.locks))]
    alice.submit(tail_spike_submission(kernel.lock_id_by_name("svc.shard0.lock")))
    record = alice.rollout("tail-spike", canary_locks=canary_locks, **windows)
    kernel.run()

    print(f"tail guard  : {record.state.name:<12} {record.verdict.describe()}")
    old_verdict = SLOGuard(max_avg_wait_regression=args.max_regression).evaluate(
        record.baseline_report, record.canary_report
    )
    print(f"avg guard   : {'pass' if old_verdict.ok else 'FAIL':<12} {old_verdict.describe()}")
    check(record.state is PolicyState.ROLLED_BACK, "tail guard rolled the policy back")
    check(
        old_verdict.ready and old_verdict.ok,
        "old SLOGuard passes the same reports (average within budget)",
    )
    breaches = record.verdict.attributed
    check(
        any(b.lock_name == "svc.shard0.lock" and b.metric == "p99_wait_ns" for b in breaches),
        "breach attributes the regression to svc.shard0.lock p99",
    )
    for breach in breaches:
        print(f"  breach: {breach.describe()}")

    # -- phase 2: pooled evidence trips what no member alone can ------
    print("\nphase 2: 3-kernel wave — pooled histograms trip the fleet verdict")
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="concordd-guards-")
    fleet = pooled_fleet(
        args,
        journal_dir,
        "journal",
        lambda seed: shard_kernel(args.sockets, args.cores, seed, args.locks),
    )
    for member in fleet.members():
        spawn_shard_workload(
            member.kernel,
            member.kernel.now + args.duration_ns,
            args.tasks_per_lock,
            args.cs_ns,
        )
    coordinator = FleetCoordinator(
        fleet,
        journal=PolicyJournal(os.path.join(journal_dir, "fleet.jsonl")),
        pooled_guard=TailWaitGuard(max_tail_regression=args.max_tail_regression),
    )
    result = coordinator.execute(
        _pooled_wave("tail-spike", canary_locks, window // 2),
        lambda member: tail_spike_submission(
            member.kernel.lock_id_by_name("svc.shard0.lock")
        ),
        **windows,
    )
    print(result.describe())
    check(result.state is FleetRolloutState.HALTED, "pooled verdict HALTED the wave")
    check(
        result.halt_cause is not None and "pooled breach" in result.halt_cause,
        "halt cause is the pooled breach",
    )
    check(
        result.halt_cause is not None
        and "svc.shard0.lock" in result.halt_cause
        and all(k in result.halt_cause for k in ("k0", "k1", "k2")),
        "pooled breach names the lock and all three kernels",
    )
    check(_every_kernel_stock(fleet), "every kernel reverted to stock")
    check(
        any(
            e.get("lock") == "svc.shard0.lock" and e.get("kernels") == ["k0", "k1", "k2"]
            for e in fleet_events(coordinator.journal, "pooled-breach")
        ),
        "fleet journal records the attributed pooled-breach event",
    )
    return check.verdict("guards scenario", "PASSED")


def _traffic_rollout(args, schedule, journal_dir: str, label: str):
    """One trace-driven 3-kernel rollout of the benign metering policy.

    The trace (same seed, same tenants, same bindings for both runs) is
    installed into every member *before* the wave executes, so the
    baseline and canary windows of each member's rollout are measured
    against whatever load the schedule delivers in those windows.  Only
    the schedule differs between the steady and burst runs — the policy,
    guard, and budgets are identical, which is what makes the verdict
    load-dependent rather than policy-dependent.
    """
    arrivals = PoissonProcess(rate_per_ms=args.rate_per_ms)
    tenants = TenantSet(
        [
            Tenant("web", 3.0, [("shard0", 2.0), ("shard1", 1.0)]),
            Tenant("batch", 1.0, [("shard1", 1.0)]),
        ]
    )
    trace = TraceGenerator(schedule, arrivals, tenants, seed=args.seed).generate()
    runner = TraceRunner(
        trace,
        {
            "shard0": LockBinding("svc.shard0.lock", cs_ns=args.cs_ns),
            "shard1": LockBinding("svc.shard1.lock", cs_ns=args.cs_ns),
        },
    )
    fleet = pooled_fleet(
        args,
        journal_dir,
        f"journal.{label}",
        lambda seed: shard_kernel(args.sockets, args.cores, seed, 2),
    )
    runner.drive_fleet(fleet)
    coordinator = FleetCoordinator(
        fleet,
        journal=PolicyJournal(os.path.join(journal_dir, f"fleet.{label}.jsonl")),
        pooled_guard=TailWaitGuard(max_tail_regression=args.max_tail_regression),
    )
    window = args.duration_ns // 4
    result = coordinator.execute(
        _pooled_wave("traffic-meter", ["svc.shard0.lock", "svc.shard1.lock"], window // 2),
        lambda member: _steady_submission("traffic-meter"),
        baseline_ns=window,
        canary_ns=2 * window,
        check_every_ns=window // 2,
    )
    # Drain the replay tail so per-phase stats cover the whole trace.
    for member in fleet.members():
        member.kernel.run(until=trace.total_ns + args.duration_ns)
    return trace, runner, coordinator, fleet, result


def run_traffic_scenario(args) -> int:
    """The trace-driven load acceptance path, in three phases.

    1. **Malthusian knee.**  The collapse workload's thread sweep must
       peak where the closed-loop model predicts and fall measurably
       past it — the scenario corpus actually contains a collapse.
    2. **Steady trace.**  A Poisson trace at the base rate drives a
       3-kernel rollout of a benign metering policy; the pooled
       ``TailWaitGuard`` sees comparable baseline/canary tails and the
       wave COMPLETEs.
    3. **Burst trace.**  The *same* policy, budgets, seed, and tenants —
       but the schedule spikes ``--burst-scale``× exactly while the
       canary window is open.  The pooled p99 evidence breaches, the
       fleet HALTs, and the breach is journaled with per-lock
       attribution.  Same policy, opposite verdict: the decision is
       about the load, which is the point of the traffic layer.
    """
    check = Checks()

    # -- phase 1: the corpus has a real concurrency knee ---------------
    print("phase 1: malthusian collapse — throughput knees and falls")
    knee_topo = Topology(sockets=2, cores_per_socket=4)
    result = sweep(
        lambda: MalthusianBench(),
        knee_topo,
        [1, 2, 3, 4, 5, 6, 8],
        duration_ns=400_000,
        warmup_ns=100_000,
        seed=args.seed,
    )
    print(format_sweep_table([result], title="malthus sweep (ops/msec)"))
    knee = knee_threads(result)
    expected = MalthusianBench().expected_knee()
    peak = max(p.ops_per_msec for p in result.points)
    tail = result.at(8).ops_per_msec
    print(f"knee: measured n={knee}, predicted n={expected}, "
          f"collapse at n=8: {tail / peak:.2f}x of peak")
    check(abs(knee - expected) <= 1, "knee lands where the model predicts")
    check(tail < 0.7 * peak, "throughput collapses past the knee")

    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="concordd-traffic-")
    window = args.duration_ns // 4

    # -- phase 2: steady load, the policy clears the pooled guard ------
    print("\nphase 2: steady trace — same policy, pooled tail guard passes")
    steady = PhaseSchedule.steady(args.duration_ns)
    trace_s, runner_s, _coord_s, fleet_s, result_s = _traffic_rollout(
        args, steady, journal_dir, "steady"
    )
    print(f"trace: {trace_s.describe()}")
    print(runner_s.report())
    print(result_s.describe())
    check(
        result_s.state is FleetRolloutState.COMPLETE,
        "steady-load wave COMPLETEs",
    )
    check(
        all(
            any(r.live and r.state is PolicyState.ACTIVE for r in member.daemon.records.values())
            for member in fleet_s.members()
        ),
        "policy ACTIVE on every kernel under steady load",
    )

    # -- phase 3: burst mid-canary, the same policy is halted ----------
    print("\nphase 3: burst trace — same policy, pooled tail guard halts the fleet")
    burst = PhaseSchedule.burst(
        window, 2 * window, args.duration_ns - 3 * window,
        burst_scale=args.burst_scale,
    )
    print(f"schedule: {burst.describe()} (canary window [{window}ns, {3 * window}ns))")
    trace_b, runner_b, coord_b, fleet_b, result_b = _traffic_rollout(
        args, burst, journal_dir, "burst"
    )
    print(f"trace: {trace_b.describe()}")
    print(runner_b.report())
    print(result_b.describe())
    check(
        result_b.state is FleetRolloutState.HALTED,
        "burst-load wave HALTED by the pooled verdict",
    )
    check(
        result_b.halt_cause is not None and "pooled breach" in result_b.halt_cause,
        "halt cause is the pooled breach",
    )
    check(_every_kernel_stock(fleet_b), "every kernel reverted to stock after the halt")
    check(
        any(
            e.get("lock", "").startswith("svc.shard")
            and e.get("kernels") == ["k0", "k1", "k2"]
            for e in fleet_events(coord_b.journal, "pooled-breach")
        ),
        "fleet journal records the attributed pooled-breach event",
    )
    burst_p99 = runner_b.phase_stats("burst").wait_p99()
    pre_p99 = runner_b.phase_stats("pre").wait_p99()
    print(f"replay tails: pre p99 {pre_p99}ns, burst p99 {burst_p99}ns")
    check(burst_p99 > pre_p99, "burst phase degrades the replay tail")
    return check.verdict(
        "traffic scenario",
        "PASSED: the same policy cleared guards under "
        "steady load and was halted with an attributed breach under burst",
    )


def _adapt_bench_world(args, journal):
    """One Malthusian-bench kernel with an adaptation loop over it."""
    kernel = shard_kernel(2, 4, args.seed, 0)
    bench = MalthusianBench()
    bench.setup(kernel)
    concord = Concord(kernel)
    daemon = Concordd(concord, journal=journal)
    return kernel, bench, concord, daemon


def _adapt_bench_loop(daemon, **overrides):
    """The loop timings phase 2/3 share (tuned for the closed-loop bench:
    ~400k ns windows hold a few hundred acquisitions past the knee)."""
    params = dict(
        selector="bench.*",
        window_ns=400_000,
        baseline_ns=80_000,
        canary_ns=120_000,
        check_every_ns=20_000,
    )
    params.update(overrides)
    return AdaptationLoop(daemon=daemon, **params)


def _spawn_bench_workers(kernel, bench, start: int, count: int) -> None:
    order = kernel.topology.fill_order()
    for index in range(start, start + count):
        kernel.spawn(
            lambda task, i=index: bench.worker(task, i),
            cpu=order[index],
            name=f"malthus-{index}",
        )


def _hot_lock_kernel(args, seed: int):
    """A kernel whose one lock, ``svc.hot.lock``, is a stock MCS lock."""
    kernel = shard_kernel(args.sockets, args.cores, seed, 0)
    kernel.add_lock("svc.hot.lock", MCSLock(kernel.engine, name="hot"))
    return kernel


def _adaptation_entries(journal, event=None):
    entries = [e for e in journal.entries() if e.get("kind") == "adaptation"]
    if event is not None:
        entries = [e for e in entries if e.get("event") == event]
    return entries


def run_adapt_scenario(args) -> int:
    """The adaptive-overload-defense acceptance path, in three phases.

    1. **Fleet burst trace.**  Three kernels replay a crowd-sensitive
       Poisson trace whose burst phase drives the hot lock past its
       coherence capacity (arrivals outrun the collapsed service rate,
       so throughput *falls* while p99 blows up).  The coordinator-mode
       :class:`AdaptationLoop` must detect the collapse on pooled
       evidence, self-propose a Malthusian cull, canary it fleet-wide
       under the tail+fairness guard, and keep it — with post-cull
       throughput at least ``0.8x`` the healthy reference rate.
    2. **Mid-loop kill.**  On the closed-loop bench, the loop is killed
       (:class:`InjectedCrash`) at the ``adaptive.propose`` fault site —
       after ``cull-proposed`` hits the journal, before anything is
       installed.  A rebuilt daemon + loop over the same journal file
       must resolve the open proposal as rolled back (never leaving a
       proposed-but-unjudged cull), re-seed the detector's healthy
       reference from the journaled evidence, and — continuing the loop
       — re-propose and keep the cull under a fresh policy name.
    3. **Over-aggressive cap.**  The same bench, but the loop is forced
       to ``cap_override=1`` under an operator-tightened fairness
       budget (``--max-skew-increase``).  A too-deep cull leaves the
       LIFO passive stack stable, starving socket-clustered waiters;
       the canary's :class:`FairnessGuard` must catch the growing
       per-socket skew and roll the cull back, leaving the stock lock
       in place.  (The auto-derived cap clears the same tightened
       budget — the skew is the cap's fault, not the cull's.)
    """
    check = Checks()
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="concordd-adapt-")

    # -- phase 1: fleet-wide detect -> propose -> canary -> keep -------
    print("phase 1: burst trace collapses the fleet's hot lock; the loop culls it")
    window = args.duration_ns // 4
    schedule = PhaseSchedule.burst(
        window, 2 * window, args.duration_ns - 3 * window,
        burst_scale=args.burst_scale,
    )
    arrivals = PoissonProcess(rate_per_ms=args.rate_per_ms)
    tenants = TenantSet(
        [
            Tenant("web", 3.0, [("hot", 1.0)]),
            Tenant("batch", 1.0, [("hot", 1.0)]),
        ]
    )
    trace = TraceGenerator(
        schedule, arrivals, tenants, seed=args.trace_seed
    ).generate()
    print(f"trace: {trace.describe()}")
    runner = TraceRunner(
        trace,
        {
            "hot": LockBinding(
                "svc.hot.lock",
                cs_ns=args.cs_ns,
                waiter_penalty_ns=args.waiter_penalty_ns,
            )
        },
    )
    # The loop's own composite guard (pooled tail + fairness) judges the
    # canary alone.
    fleet = pooled_fleet(
        args, journal_dir, "adapt", lambda seed: _hot_lock_kernel(args, seed)
    )
    runner.drive_fleet(fleet)
    coordinator = FleetCoordinator(
        fleet, journal=PolicyJournal(os.path.join(journal_dir, "adapt.fleet.jsonl"))
    )
    loop = AdaptationLoop(
        coordinator=coordinator,
        selector="svc.hot.lock",
        window_ns=300_000,
        baseline_ns=100_000,
        canary_ns=300_000,
        check_every_ns=100_000,
    )
    decisions = loop.run(passes=10)
    for decision in decisions:
        print(f"  {decision.describe()}")
    check(
        decisions and decisions[-1].outcome == "kept",
        "fleet loop detects the collapse and keeps the cull",
    )
    impls = [
        member.kernel.locks.get("svc.hot.lock").core.impl
        for member in fleet.members()
    ]
    check(
        all(isinstance(impl, CullingLock) for impl in impls),
        "every member's hot lock runs the culling impl",
    )
    detected = _adaptation_entries(coordinator.journal, "collapse-detected")
    proposed = _adaptation_entries(coordinator.journal, "cull-proposed")
    kept = _adaptation_entries(coordinator.journal, "cull-kept")
    check(
        bool(detected) and bool(proposed) and bool(kept),
        "fleet journal has collapse-detected, cull-proposed, cull-kept",
    )
    check(
        bool(proposed)
        and all(impl.cap == proposed[-1].get("cap") for impl in impls),
        "installed caps match the journaled proposal",
    )
    if detected and kept:
        ref_rate = detected[-1]["ref_rate_per_ms"]
        post_rate = kept[-1].get("rate_per_ms", 0.0)
        print(
            f"  post-cull rate {post_rate:.1f} ops/ms vs healthy reference "
            f"{ref_rate:.1f} ops/ms"
        )
        check(
            post_rate >= 0.8 * ref_rate,
            "post-cull throughput >= 0.8x the healthy reference rate",
        )

    # -- phase 2: kill -9 between propose and install ------------------
    print("\nphase 2: loop killed mid-propose; recovery resolves the open cull")
    journal_path = os.path.join(journal_dir, "adapt.bench.jsonl")
    kernel, bench, concord, daemon = _adapt_bench_world(
        args, PolicyJournal(journal_path)
    )
    bench_loop = _adapt_bench_loop(daemon)
    _spawn_bench_workers(kernel, bench, 0, 4)
    kernel.run(until=kernel.now + 100_000)
    first = bench_loop.run_once()  # healthy window becomes the reference
    check(first.outcome == "idle", "pre-knee window is judged healthy")
    _spawn_bench_workers(kernel, bench, 4, 4)
    kernel.run(until=kernel.now + 100_000)
    kill_plan = FaultPlan(seed=args.seed, name="adapt-kill")
    kill_plan.crash(SITE_ADAPTIVE_PROPOSE)
    crashed = False
    try:
        with injected(kill_plan):
            bench_loop.run_once()
    except InjectedCrash:
        crashed = True
    site = kernel.locks.get("bench.malthus")
    check(crashed, "InjectedCrash unwound the pass mid-propose")
    open_proposals = _adaptation_entries(PolicyJournal(journal_path), "cull-proposed")
    check(
        bool(open_proposals)
        and not _adaptation_entries(PolicyJournal(journal_path), "cull-rolled-back"),
        "journal ends on an open cull-proposed entry",
    )
    check(
        isinstance(site.core.impl, MCSLock),
        "nothing was installed before the crash",
    )
    journal_b = PolicyJournal(journal_path)
    registry = {f"culling-cap{cap}": culling_impl_factory(cap) for cap in range(1, 9)}
    daemon_b = Concordd(concord, journal=journal_b, impl_registry=registry)
    daemon_b.recover()
    loop_b = _adapt_bench_loop(daemon_b)
    summary = loop_b.recover()
    print(f"  loop recover: {summary}")
    check(summary["resolved"] == 1, "recover() resolved the open proposal")
    resolved = _adaptation_entries(journal_b, "cull-rolled-back")
    check(
        bool(resolved) and "recovered" in resolved[-1].get("cause", ""),
        "open proposal journaled as rolled back by recovery",
    )
    check(
        isinstance(site.core.impl, MCSLock),
        "no proposed-but-unjudged cull left installed after recovery",
    )
    reference = loop_b.detector.reference("bench.malthus")
    check(
        reference is not None and reference.rate_per_ms > 0,
        "healthy reference re-seeded from the journal",
    )
    continued = loop_b.run(passes=4)
    for decision in continued:
        print(f"  {decision.describe()}")
    check(
        continued and continued[-1].outcome == "kept",
        "continued loop re-proposes and keeps the cull",
    )
    check(
        continued
        and continued[-1].policy == "cull.bench.malthus.2"
        and isinstance(site.core.impl, CullingLock),
        "re-proposal gets a fresh policy name and installs the cull",
    )

    # -- phase 3: over-aggressive cap is rolled back on fairness -------
    print("\nphase 3: forced cap=1 starves sockets; fairness guard rolls it back")
    kernel3, bench3, _concord3, daemon3 = _adapt_bench_world(args, PolicyJournal())
    tight_guard = AllOf(
        TailWaitGuard(max_tail_regression=1.0),
        FairnessGuard(max_skew_increase=args.max_skew_increase),
    )
    loop3 = _adapt_bench_loop(
        daemon3,
        cap_override=1,
        guard=tight_guard,
        canary_ns=300_000,
        check_every_ns=100_000,
    )
    _spawn_bench_workers(kernel3, bench3, 0, 4)
    kernel3.run(until=kernel3.now + 100_000)
    loop3.run_once()  # healthy reference
    _spawn_bench_workers(kernel3, bench3, 4, 4)
    kernel3.run(until=kernel3.now + 100_000)
    verdict = loop3.run_once()
    print(f"  {verdict.describe()}")
    site3 = kernel3.locks.get("bench.malthus")
    check(verdict.outcome == "rolled-back", "cap=1 cull is rolled back")
    check(
        "skew" in verdict.cause,
        "rollback cause is the per-socket fairness skew",
    )
    check(
        isinstance(site3.core.impl, MCSLock),
        "stock lock restored after the rollback",
    )
    check(
        bool(_adaptation_entries(daemon3.journal, "cull-rolled-back")),
        "rollback verdict journaled",
    )

    if args.audit:
        print("\nfleet adaptation journal:")
        for entry in _adaptation_entries(coordinator.journal):
            print(f"  {entry}")
        print("\nbench audit log:")
        print(daemon_b.audit.format())
    return check.verdict(
        "adapt scenario",
        "PASSED: collapse detected on pooled evidence, "
        "self-proposed cull kept fleet-wide, crash recovery never left an "
        "unjudged cull, and the over-aggressive cap was rolled back",
    )


def run_replicated_scenario(args) -> int:
    """The replicated-control-plane acceptance path, in four phases.

    Every member's policy journal — and the coordinator's fleet journal
    — is replicated across ``--sites`` replica sites with
    available-copies semantics (quorum commit, fenced leader lease).

    1. **replicated rollout**: a good policy reaches fleet-wide ACTIVE
       with every journal write quorum-committed; daemon pings report
       replication health and every replica site answers its probe;
    2. **leader death mid-rollout**: one member's group leader is killed
       at its next append; the group fails over *within the wave* and
       the rollout completes — no committed ack is lost, the new leader
       serves the full committed log (read-your-writes);
    3. **follower kill + recover**: a recovered site refuses reads
       (:class:`~repro.replication.site.SiteUnreadable`) until the first
       post-recovery committed write lands, whose catch-up provably
       levels its log with the group;
    4. **concurrent overlapping rollouts**: two coordinators open
       ledger transactions over overlapping lock footprints; the first
       committer wins, the second aborts with a journaled serialization
       conflict and its patches are reverted — never both.
    """
    if not (
        require("replicated", "--kernels", args.kernels, 3)
        and require(
            "replicated", "--sites", args.sites, 3, " (one site death must leave a quorum)"
        )
    ):
        return 2
    check = Checks()
    fleet, groups = shard_fleet(args)
    fleet_group = ReplicaGroup("fleet", nr_sites=args.sites)
    print(
        f"fleet of {len(fleet)} kernels; every journal replicated "
        f"{args.sites} ways (quorum {fleet_group.quorum})"
    )

    placement = learn_placement(fleet, args)
    windows = rollout_windows(args)
    planner = wave_planner(args)
    monitor = HealthMonitor(fleet)
    coordinator = FleetCoordinator(
        fleet, journal=fleet_group.journal(), health=monitor
    )

    # -- phase 1: rollout over replicated journals ---------------------
    print("\nphase 1: rollout over replicated journals — quorum commits, site probes")
    good = coordinator.execute(
        planner.plan("numa-good", placement), _good_numa_factory, **windows
    )
    print(good.describe())
    check(
        good.state is FleetRolloutState.COMPLETE,
        "rollout COMPLETE over replicated journals",
    )
    check(
        fleet_active(fleet, "numa-good", good.plan.kernels()),
        "numa-good ACTIVE on every kernel",
    )
    pings = {m.name: m.daemon.ping() for m in fleet.members()}
    check(
        all(
            p.get("replication", {}).get("commit_index", 0) > 0
            for p in pings.values()
        ),
        "every daemon ping reports replication commit progress",
    )
    probes = monitor.probe_all(include_sites=True)
    site_probes = {k: r for k, r in probes.items() if "/site" in k}
    check(
        len(site_probes) == len(fleet) * args.sites
        and all(r.ok for r in site_probes.values()),
        f"all {len(site_probes)} replica sites answer their probes",
    )

    # -- phase 2: leader killed mid-rollout, failover completes --------
    print("\nphase 2: leader site killed mid-rollout — failover completes the wave")
    victim_member = "k1"
    group = groups[victim_member]
    old_leader = group.leader.name
    print(f"victim: {old_leader} (leader of {victim_member}'s group, dies at its next append)")
    kill = FaultPlan(seed=args.seed, name="kill-leader")
    kill.fail(SITE_REPLICATION_APPEND, times=1, match={"replica": old_leader})
    with injected(kill):
        steady = coordinator.execute(
            planner.plan("steady", placement),
            lambda member: _steady_submission(),
            **windows,
        )
    print(steady.describe())
    print(group.describe())
    check(
        kill.fired[SITE_REPLICATION_APPEND] == 1,
        "the injected fault killed the leader mid-append",
    )
    check(
        steady.state is FleetRolloutState.COMPLETE,
        "failover completed the wave: rollout COMPLETE",
    )
    check(
        fleet_active(fleet, "steady", steady.plan.kernels()),
        "steady ACTIVE on every kernel",
    )
    check(
        group.failovers >= 1 and group.leader.name != old_leader,
        f"leadership failed over off {old_leader} "
        f"(now {group.leader.name}, lease epoch {group.lease_epoch})",
    )
    check(
        group.site(old_leader).state is SiteState.DOWN,
        "the killed site is DOWN",
    )
    check(
        len(group.entries()) == group.commit_index,
        "no committed ack lost: every committed entry readable after failover",
    )
    last = fleet.member(victim_member).journal.last_transition("steady")
    check(
        last is not None and last["to"] == "ACTIVE",
        "read-your-writes: the new leader serves the full committed log",
    )

    # -- phase 3: recovered follower is read-gated ---------------------
    print("\nphase 3: follower killed + recovered — read-gated until a committed write")
    follow_member = "k2"
    fgroup = groups[follow_member]
    follower = next(s for s in fgroup.sites if s is not fgroup.leader)
    print(f"victim: {follower.name} (follower, killed then recovered)")
    fgroup.fail_site(follower.name)
    recovered = fgroup.recover_site(follower.name)
    refused = False
    try:
        recovered.read(fgroup.commit_index)
    except SiteUnreadable:
        refused = True
    check(
        refused and not recovered.readable,
        f"{follower.name} refuses reads while RECOVERING (available-copies gate)",
    )
    probe = monitor.probe_sites(follow_member)[follower.name]
    check(
        probe.ok and "read-gated" in probe.detail,
        "the health probe reports the site recovering (read-gated)",
    )
    member = fleet.member(follow_member)
    member.journal.heartbeat(int(member.kernel.now), member=follow_member)
    check(
        recovered.readable and recovered.state is SiteState.UP,
        "the first committed write post-recovery lifts the read gate",
    )
    committed = {
        seq: entry
        for seq, entry in fgroup.leader.log.items()
        if seq <= fgroup.commit_index
    }
    check(
        all(recovered.log.get(seq) == entry for seq, entry in committed.items()),
        "catch-up shipped every committed entry the site missed",
    )
    check(
        recovered.read(fgroup.commit_index) == fgroup.entries(),
        "the recovered site serves the same committed log as the leader",
    )

    # -- phase 4: concurrent rollouts, first committer wins ------------
    print("\nphase 4: concurrent overlapping rollouts — first committer wins")
    ledger = SerializationLedger(journal=fleet_group.journal())
    coord_a = FleetCoordinator(
        fleet, journal=fleet_group.journal(), client_id="coord-a", ledger=ledger
    )
    coord_b = FleetCoordinator(
        fleet, journal=fleet_group.journal(), client_id="coord-b", ledger=ledger
    )
    plan_a = planner.plan("tuner-alpha", placement)
    plan_b = planner.plan("tuner-bravo", placement)
    txn_b = coord_b.open_transaction(plan_b)
    result_a = coord_a.execute(
        plan_a, lambda member: _steady_submission("tuner-alpha"), **windows
    )
    result_b = coord_b.execute(
        plan_b, lambda member: _steady_submission("tuner-bravo"), **windows
    )
    print(result_a.describe())
    print(result_b.describe())
    check(
        result_a.state is FleetRolloutState.COMPLETE
        and result_a.txn is not None
        and result_a.txn.status is TxnStatus.COMMITTED,
        "first committer (tuner-alpha) COMPLETE, its transaction committed",
    )
    check(
        result_b.state is FleetRolloutState.HALTED
        and "serialization conflict" in (result_b.halt_cause or ""),
        "second committer aborted: serialization conflict halts the rollout",
    )
    check(
        txn_b.status is TxnStatus.ABORTED,
        "the loser's ledger transaction is ABORTED",
    )
    check(
        [t.txn_id for t in ledger.committed()] == ["tuner-alpha@coord-a"],
        "exactly one of the two overlapping rollouts committed",
    )
    events = [
        e.get("event")
        for e in fleet_group.journal().entries()
        if e.get("kind") in ("fleet", "replication")
    ]
    check(
        "serialization-conflict" in events and "txn-abort" in events,
        "the conflict and the txn abort are journaled",
    )
    check(
        all(member_stock(fleet, k, "tuner-bravo") for k in plan_b.kernels())
        and fleet_active(fleet, "tuner-alpha", plan_a.kernels()),
        "the aborted rollout reverted every kernel; the winner stands",
    )

    if args.audit:
        print_fleet_audit(fleet)
    return check.verdict(
        "replicated scenario",
        "passed: quorum commits, leader failover, "
        "the recovery read gate, and commit-time serialization all behaved",
    )


def run_scrub_scenario(args) -> int:
    """The storage-integrity acceptance path, in three phases.

    Every durable record now carries a CRC32 + sequence envelope, and
    the ``storage.corrupt.*`` model is *silent* rot: a flipped byte the
    write never noticed.  This scenario proves the three answers:

    1. **scrub + quorum repair** (replicated fleet): one byte of one
       committed record on one replica site is flipped; the health
       monitor's scrub pass detects it, the site is rebuilt
       byte-for-byte from quorum peers, and post-repair reads equal the
       pre-corruption committed prefix exactly — zero committed-entry
       loss.  The verdict lands everywhere it should: the site's
       ``last_scrub``, the group's health, and journaled
       ``scrub-failed`` / ``scrub-repaired`` events;
    2. **snapshot compaction** (same fleet): a member's journal is
       folded into a checksummed snapshot while one level follower is
       down; recovery over snapshot + tail reconstructs the same
       fleet-wide ACTIVE state, and anti-entropy digests agree across a
       site holding the snapshot and one still holding raw records —
       content, not representation, is what is compared;
    3. **quarantined salvage** (file-journal fleet): a mid-journal byte
       of one *unreplicated* shard is flipped.  The corruption error
       names the physical line, the shard path, and the owning member;
       fleet recovery does not abort — the member is quarantined, the
       valid prefix salvaged (rotten suffix kept as ``<path>.corrupt``),
       the stranded ACTIVE policy booked as revert debt, and reinstate +
       drain returns the member to stock while the survivors keep
       serving.
    """
    if not (
        require("scrub", "--kernels", args.kernels, 3)
        and require("scrub", "--sites", args.sites, 3, " (repair needs quorum peers)")
    ):
        return 2
    check = Checks()
    fleet, groups = shard_fleet(args)
    fleet_group = ReplicaGroup("fleet", nr_sites=args.sites)
    fleet_journal = fleet_group.journal()
    scrubber = Scrubber(journal=fleet_journal)
    monitor = HealthMonitor(fleet, scrubber=scrubber)
    coordinator = FleetCoordinator(fleet, journal=fleet_journal, health=monitor)
    print(
        f"fleet of {len(fleet)} kernels, journals replicated {args.sites} "
        f"ways, scrubber wired into the health monitor"
    )

    placement = learn_placement(fleet, args)
    windows = rollout_windows(args)
    planner = wave_planner(args)

    # -- phase 1: silent rot on one replica, scrub detects + repairs ---
    print("\nphase 1: silent rot on one replica — scrub detects, quorum repairs")
    good = coordinator.execute(
        planner.plan("numa-good", placement), _good_numa_factory, **windows
    )
    print(good.describe())
    check(
        good.state is FleetRolloutState.COMPLETE,
        "rollout COMPLETE over replicated journals",
    )
    victim_group = groups["k1"]
    committed_before = victim_group.entries()
    follower = next(s for s in victim_group.sites if s is not victim_group.leader)
    seq = max(s for s in follower.log if s <= victim_group.commit_index)
    follower.log[seq] = flip_byte(follower.log[seq], salt=seq)
    print(f"flipped one byte of {follower.name}'s record at seq {seq}")
    probes = monitor.probe_all()
    verdict = probes.get("k1:scrub")
    check(
        verdict is not None and verdict.ok and "repaired" in verdict.detail,
        "the health monitor's scrub pass detected and healed the rot",
    )
    check(
        (follower.last_scrub or "").startswith("repaired from"),
        f"{follower.name} was rebuilt from a quorum peer "
        f"({follower.last_scrub})",
    )
    check(
        # The probe round itself appended heartbeats, so compare the
        # prefix: everything committed before the flip must read back
        # exactly.
        victim_group.entries()[: len(committed_before)] == committed_before,
        "zero committed-entry loss: post-repair reads equal the "
        "pre-corruption committed prefix",
    )
    check(
        victim_group.repairs >= 1 and scrubber.repairs >= 1,
        "the repair is counted by the group and the scrubber",
    )
    health = victim_group.health()
    check(
        health["repairs"] >= 1
        and str(health["sites"][follower.name]["scrub"]).startswith("repaired")
        and all(s["lag"] == 0 for s in health["sites"].values()),
        "group health surfaces the scrub verdict and zero replication lag",
    )
    check(
        fleet_events(fleet_journal, "scrub-failed")
        and fleet_events(fleet_journal, "scrub-repaired"),
        "the scrub verdict and the repair are journaled",
    )

    # -- phase 2: compaction, then recovery over snapshot + tail -------
    print("\nphase 2: snapshot compaction — recovery replays snapshot + tail")
    target = "k2"
    tgroup = groups[target]
    member = fleet.member(target)
    for _ in range(4):  # heartbeats coalesce under folding
        member.journal.heartbeat(int(member.kernel.now), member=target)
    raw_site = next(s for s in tgroup.sites if s is not tgroup.leader)
    tgroup.fail_site(raw_site.name)  # level when killed: keeps raw records
    before = tgroup.entries()
    stats = fleet.member(target).journal.compact()
    print(
        f"compacted {target}: {stats['before']} entries -> {stats['after']} "
        f"(snapshot at seq {stats['last_seq']})"
    )
    check(
        stats["after"] < stats["before"],
        "compaction folded the committed prefix",
    )
    check(
        tgroup.entries() == fold_entries(before),
        "the compacted group serves exactly the folded committed prefix",
    )
    tgroup.recover_site(raw_site.name)
    member.journal.heartbeat(int(member.kernel.now), member=target)
    report = scrubber.scrub_group(tgroup)
    check(
        report.ok and raw_site.base is None and tgroup.leader.base is not None,
        "anti-entropy digests agree across snapshot and raw-log "
        "representations of the same prefix",
    )
    for name in ("k0", "k1"):
        fleet.member(name).journal.compact()
    resumed = coordinator.recover(_good_numa_factory, **windows)
    check(
        resumed is None,
        "recovery over compacted journals finds nothing in flight",
    )
    check(
        fleet_active(fleet, "numa-good", good.plan.kernels()),
        "snapshot + tail replay reconstructs fleet-wide ACTIVE state",
    )

    # -- phase 3: an unreplicated shard rots — quarantine + salvage ----
    print("\nphase 3: an unreplicated shard rots — quarantine, salvage, revert debt")
    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="concordd-scrub-")
    file_fleet, _ = shard_fleet(args, journal_dir)
    file_journal = PolicyJournal(os.path.join(journal_dir, "fleet.jsonl"))
    file_coord = FleetCoordinator(file_fleet, journal=file_journal)
    placement2 = learn_placement(file_fleet, args)
    good2 = file_coord.execute(
        planner.plan("numa-good", placement2), _good_numa_factory, **windows
    )
    check(
        good2.state is FleetRolloutState.COMPLETE,
        "file-journal rollout COMPLETE",
    )
    victim = file_fleet.member("k1")
    for _ in range(3):
        victim.journal.heartbeat(int(victim.kernel.now), member="k1")
    shard = victim.journal.path
    with open(shard, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    rotten_line = len(lines) - 1  # 1-based: the second-to-last line
    lines[rotten_line - 1] = (
        flip_byte(lines[rotten_line - 1].rstrip("\n"), salt=17) + "\n"
    )
    with open(shard, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"flipped one byte of {shard} line {rotten_line} (mid-journal)")
    caught = None
    try:
        PolicyJournal(shard).entries()
    except JournalCorruption as exc:
        caught = exc
    check(
        caught is not None
        and caught.line == rotten_line
        and caught.path == shard
        and "not a torn write" in str(caught),
        "the corruption error reports the physical line and the shard path",
    )
    file_coord.recover(_good_numa_factory, **windows)
    check(
        file_fleet.is_quarantined("k1"),
        "fleet recovery quarantined the rotten shard's member instead of aborting",
    )
    check(
        os.path.exists(shard + ".corrupt"),
        "the rotten suffix is preserved as evidence (<shard>.corrupt)",
    )
    check(
        any(d["kernel"] == "k1" and d["policy"] == "numa-good" for d in file_coord.debt),
        "the stranded ACTIVE policy is booked as revert debt",
    )
    rot_events = fleet_events(file_journal, "shard-corrupt")
    check(
        rot_events
        and rot_events[0].get("kernel") == "k1"
        and "member k1" in str(rot_events[0].get("cause", "")),
        "the corruption is journaled naming the owning member",
    )
    check(
        fleet_active(
            file_fleet, "numa-good", [k for k in good2.plan.kernels() if k != "k1"]
        ),
        "the surviving kernels keep serving numa-good",
    )
    file_coord.reinstate("k1")
    drained = file_coord.drain_debt()
    check(
        any(d["kernel"] == "k1" for d in drained),
        "reinstate + drain pays the quarantined member's debt",
    )
    check(
        member_stock(file_fleet, "k1", "numa-good"),
        "the reinstated member is back to stock",
    )

    if args.audit:
        print_fleet_audit(fleet)
    return check.verdict(
        "scrub scenario",
        "passed: checksums caught the rot, quorum peers "
        "repaired it, snapshots replayed faithfully, and the unreplicated "
        "casualty was quarantined with its debt booked",
    )


def run_partition_scenario(args) -> int:
    """The partition-tolerance acceptance path, in five phases.

    Every cross-member message — coordinator calls, health probes, and
    each member's replication traffic — crosses one simulated
    :class:`~repro.netsim.Fabric`.  The coordinator's fleet journal
    stays *off* the fabric: the control plane must be able to record a
    halt even while the data path is dark.

    1. **fabric online**: a rollout completes fleet-wide with every
       message over a modelled wire (latency + jitter), every replica
       site answering its probe;
    2. **mid-rollout partition (any-breach)**: one cohort member's link
       goes dark at its bake (a timed ``net.partition.flip``); the
       envelope retries, exhausts, journals ``rpc-exhausted`` classified
       ``unreachable``, and the any-breach verdict halts — the victim
       quarantined, its policy booked as revert debt, every reachable
       kernel back to stock;
    3. **deadline-exceeded (quorum)**: a second coordinator with a tight
       per-call timeout and total sim-time deadline rolls out under
       quorum verdict while one member's link crawls; its envelope gives
       up by *time* — journaled ``deadline-exceeded``, distinct from the
       quarantined member's ``unreachable`` — and the rollout completes
       degraded;
    4. **split brain**: a seeded, replayable
       :class:`~repro.netsim.PartitionSchedule` asymmetrically splits
       one member's group leader from the majority mid-traffic; the
       group commits on the quorum side, fails over, and the deposed
       leader's stale lease is fenced (:class:`StaleLeaderFenced`) —
       its site marked DOWN *partitioned* (log intact), distinct from a
       failed site;
    5. **heal + reconcile**: the schedule heals on time; catch-up and
       scrub converge every site of every group to the same committed
       prefix, the quarantined member is reinstated and its revert debt
       drained, and a final rollout leaves the fleet uniform — never a
       split fleet.
    """
    if not (
        require(
            "partition", "--kernels", args.kernels, 4,
            " (two casualties must leave a 0.5 quorum)",
        )
        and require(
            "partition", "--sites", args.sites, 3,
            " (one partitioned site must leave a quorum)",
        )
    ):
        return 2
    check = Checks()
    fabric = Fabric(seed=args.seed)
    fabric.set_model(LinkModel(latency_ns=400, jitter_ns=100))
    fleet, groups = shard_fleet(args, fabric=fabric)
    fleet_group = ReplicaGroup("fleet", nr_sites=args.sites)
    fleet_journal = fleet_group.journal()
    print(
        f"fleet of {len(fleet)} kernels on a simulated fabric "
        f"(seed {args.seed}); journals replicated {args.sites} ways"
    )

    placement = learn_placement(fleet, args)
    windows = rollout_windows(args)
    monitor = HealthMonitor(fleet, fabric=fabric)
    coordinator = FleetCoordinator(
        fleet,
        journal=fleet_group.journal(),
        health=monitor,
        fabric=fabric,
        rpc_jitter_seed=args.seed,
    )

    # -- phase 1: the fabric is online, rollout crosses it -------------
    print("\nphase 1: rollout across the fabric — every message over a modelled wire")
    planner = wave_planner(args)
    plan1 = planner.plan("numa-good", placement)
    good = coordinator.execute(plan1, _good_numa_factory, **windows)
    print(good.describe())
    check(
        good.state is FleetRolloutState.COMPLETE,
        "rollout COMPLETE with every call over the fabric",
    )
    check(
        fleet_active(fleet, "numa-good", plan1.kernels()),
        "numa-good ACTIVE on every kernel",
    )
    check(
        fabric.delivered > 0 and fabric.rejected == 0,
        f"the fabric carried the rollout ({fabric.delivered} deliveries, none rejected)",
    )
    probes = monitor.probe_all(include_sites=True)
    check(
        all(r.ok for r in probes.values()),
        f"all {len(probes)} member and site probes cross the fabric HEALTHY",
    )

    # -- phase 2: a link goes dark mid-rollout; any-breach halts -------
    print("\nphase 2: mid-rollout partition — any-breach halts, debt booked")
    spawn_fleet_workload(fleet, args)
    plan2 = planner.plan("steady", placement)
    victim = plan2.waves[1].kernels[0]
    print(f"victim: {victim} (its link goes dark at its bake, for 2ms of sim time)")
    kill = FaultPlan(seed=args.seed, name=f"partition-{victim}")
    kill.stall(
        SITE_NET_PARTITION_FLIP,
        delay_ns=2_000_000,
        times=1,
        match={"dst": victim, "op": "bake"},
    )
    with injected(kill):
        halted = coordinator.execute(
            plan2, lambda member: _steady_submission(), **windows
        )
    print(halted.describe())
    check(
        kill.fired[SITE_NET_PARTITION_FLIP] == 1 and fabric.flips == 1,
        "the injected timed partition took the victim's link dark",
    )
    check(
        halted.state is FleetRolloutState.HALTED,
        "any-breach verdict HALTED the rollout",
    )
    check(
        halted.unreachable_kernels() == [victim]
        and fleet.is_quarantined(victim),
        f"{victim} recorded UNREACHABLE and quarantined",
    )
    check(
        (victim, "steady") in [(d["kernel"], d["policy"]) for d in coordinator.debt],
        "the victim's installed policy is booked as revert debt",
    )
    check(
        any(
            e["kernel"] == victim
            and e["classification"] == "unreachable"
            and e["attempts"] > 1
            for e in fleet_events(fleet_journal, "rpc-exhausted")
        ),
        "the envelope's give-up is journaled: rpc-exhausted, classified unreachable",
    )
    check(
        all(
            fleet_events(fleet_journal, e)
            for e in ("member-dead", "quarantine", "revert-debt")
        ),
        "member-dead, quarantine, and revert-debt all journaled",
    )
    check(
        all(member_stock(fleet, k, "steady") for k in plan2.kernels() if k != victim),
        "every reachable kernel converged to stock",
    )

    # -- phase 3: deadline-exceeded under a quorum verdict -------------
    print("\nphase 3: crawling link + tight deadline — quorum completes degraded")
    spawn_fleet_workload(fleet, args)
    deadline_coord = FleetCoordinator(
        fleet,
        journal=fleet_group.journal(),
        client_id="deadline-coord",
        health=monitor,
        member_retries=4,
        fabric=fabric,
        rpc_timeout_ns=5_000,
        rpc_deadline_ns=40_000,
        rpc_jitter_seed=args.seed,
    )
    plan3 = wave_planner(args, verdict_mode="quorum", quorum=args.quorum).plan(
        "deadline-tuner", placement
    )
    # The slow member sits in the last wave: the quorum check runs on
    # outcomes-so-far after every wave, and two casualties in one early
    # wave would sink it before the survivors could vote.
    slow = next(
        k
        for wave in reversed(plan3.waves[1:])
        for k in wave.kernels
        if k != victim
    )
    print(
        f"slow member: {slow} (every delivery stalls 50us; per-call timeout "
        f"5us, total deadline 40us)"
    )
    lag = FaultPlan(seed=args.seed, name=f"lag-{slow}")
    lag.stall(
        SITE_NET_LINK_DELIVER, delay_ns=50_000, times=None, match={"dst": slow}
    )
    with injected(lag):
        degraded = deadline_coord.execute(
            plan3,
            lambda member: _steady_submission("deadline-tuner"),
            **windows,
        )
    print(degraded.describe())
    check(
        degraded.state is FleetRolloutState.COMPLETE,
        f"quorum ({args.quorum}) completed the rollout degraded",
    )
    check(
        set(degraded.unreachable_kernels()) == {victim, slow},
        f"{victim} (quarantined) and {slow} (deadline) both recorded UNREACHABLE",
    )
    losses = fleet_events(fleet_journal, "rpc-exhausted")
    check(
        any(
            e["kernel"] == slow and e["classification"] == "deadline-exceeded"
            for e in losses
        ),
        f"{slow}'s loss journaled deadline-exceeded (time, not attempts)",
    )
    check(
        any(
            e["kernel"] == victim and e["classification"] == "unreachable"
            for e in losses
        )
        and not any(
            e["kernel"] == slow and e["classification"] == "unreachable"
            for e in losses
        ),
        "the two losses are classified distinctly in the journal",
    )
    survivors = [k for k in plan3.kernels() if k not in (victim, slow)]
    check(
        fleet_active(fleet, "deadline-tuner", survivors)
        and member_stock(fleet, slow, "deadline-tuner"),
        "survivors at plan; the deadline casualty untouched (never patched)",
    )

    # -- phase 4: scheduled asymmetric split — stale leader fenced -----
    print("\nphase 4: split brain — a scheduled asymmetric partition deposes a leader")
    split_member = next(k for k in sorted(groups) if k not in (victim, slow))
    group = groups[split_member]
    old_leader = group.leader.name
    stale = group.lease()
    epoch_before = group.lease_epoch
    commit_before = group.commit_index
    majority = tuple(
        s.name for s in group.sites if s.name != old_leader
    ) + (split_member,)
    t0 = fabric.clock_ns
    schedule = PartitionSchedule(
        [
            PartitionEvent(
                at_ns=t0 + 1_000,
                action="partition",
                groups=(majority, (old_leader,)),
                asymmetric=True,
            ),
            PartitionEvent(at_ns=t0 + 1_000_000, action="heal"),
        ],
        name=f"split-brain-{args.seed}",
    )
    fabric.schedule = schedule
    print(schedule.describe())
    print(
        f"deposed: {old_leader} (leader of {split_member}'s group; it hears "
        f"the majority, nothing it sends crosses out)"
    )
    replayed = PartitionSchedule.deserialize(schedule.serialize())
    check(
        replayed.serialize() == schedule.serialize() and schedule.ends_healed,
        "the schedule serializes for replay and ends healed",
    )
    fabric.advance(t0 + 2_000)
    check(
        [e.action for e in fabric.applied] == ["partition"],
        "the schedule's partition applied at its simulated time",
    )
    member = fleet.member(split_member)
    member.journal.heartbeat(int(member.kernel.now), member=split_member)
    check(
        group.failovers >= 1
        and group.leader.name != old_leader
        and group.lease_epoch > epoch_before,
        f"the group failed over around the cut ({old_leader} -> "
        f"{group.leader.name}, lease epoch {group.lease_epoch})",
    )
    check(
        group.commit_index > commit_before,
        "the majority side kept committing during the split",
    )
    fenced = False
    try:
        group.append({"kind": "note", "op": "stale-write"}, lease=stale)
    except StaleLeaderFenced:
        fenced = True
    check(
        fenced and group.commit_index == group.site(group.leader.name).commit_index,
        "the deposed leader's stale lease is fenced; the write commits nowhere",
    )
    health = group.health()
    check(
        health["sites"][old_leader]["state"] == "DOWN"
        and health["sites"][old_leader]["partitioned"],
        "health marks the cut site DOWN partitioned (log intact)",
    )
    contrast_group = groups[slow]
    dead_follower = next(
        s for s in contrast_group.sites if s is not contrast_group.leader
    )
    contrast_group.fail_site(dead_follower.name, cause="operator kill")
    check(
        not contrast_group.health()["sites"][dead_follower.name]["partitioned"]
        and "partitioned" not in dead_follower.describe(),
        "a failed site is NOT marked partitioned — the two outages are distinct",
    )
    probe = monitor.probe_sites(split_member)[old_leader]
    check(
        not probe.ok and "partitioned, log intact" in probe.detail,
        "the site probe reports the partition, not a dead disk",
    )

    # -- phase 5: heal, reconcile, drain — never a split fleet ---------
    print("\nphase 5: heal + reconcile — catch-up, scrub, drained debt, uniform fleet")
    fabric.advance(t0 + 1_100_000)
    check(
        [e.action for e in fabric.applied] == ["partition", "heal"],
        "the schedule healed the fabric at its simulated time",
    )
    check(
        fabric.reachable(split_member, old_leader)
        and fabric.reachable(coordinator.client_id, victim),
        "every link is back up (the timed flip healed with the schedule)",
    )
    for name in sorted(groups):
        g = groups[name]
        for site in g.sites:
            if site.state is SiteState.DOWN:
                g.recover_site(site.name)
        m = fleet.member(name)
        m.journal.heartbeat(int(m.kernel.now), member=name)
    scrubber = Scrubber(journal=fleet_group.journal())
    reports = {name: scrubber.scrub_group(groups[name]) for name in sorted(groups)}
    check(
        all(r.ok for r in reports.values()),
        "post-heal scrub passes on every group",
    )
    check(
        all(
            site.committed_entries(g.commit_index) == g.entries()
            for g in groups.values()
            for site in g.sites
        ),
        "every site of every group converged to the same committed prefix",
    )
    coordinator.reinstate(victim)
    coordinator.reinstate(slow)
    recovered = coordinator.recover(_good_numa_factory, **windows)
    check(
        recovered is None and not coordinator.debt,
        "reinstate + recover paid the revert debt — none stranded, nothing in flight",
    )
    check(
        fleet_events(fleet_journal, "debt-drained"),
        "the drain was journaled (debt-drained)",
    )
    check(
        member_stock(fleet, victim, "steady"),
        f"{victim}'s owed policy is back to stock",
    )
    spawn_fleet_workload(fleet, args)
    final = coordinator.execute(
        planner.plan("numa-good", placement), _good_numa_factory, **windows
    )
    print(final.describe())
    print(fabric.describe())
    check(
        final.state is FleetRolloutState.COMPLETE
        and fleet_active(fleet, "numa-good", plan1.kernels()),
        "healed fleet: numa-good uniformly ACTIVE again",
    )
    check(
        not any(fleet.is_quarantined(m.name) for m in fleet.members())
        and all(member_stock(fleet, k, "steady") for k in plan2.kernels()),
        "never a split fleet: no quarantine left, the halted policy uniformly stock",
    )

    if args.audit:
        print_fleet_audit(fleet)
    return check.verdict(
        "partition scenario",
        "passed: the fabric carried the fleet, partitions "
        "were classified and journaled, the stale leader was fenced, and the "
        "heal reconciled every copy",
    )


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


#: Every option a scenario takes, declared once: its type (or action)
#: and its usual help text.  ``_SUBCOMMANDS`` says which options each
#: scenario takes, in order, with that scenario's default — and its own
#: help text where the wording differs.
_OPTIONS = {
    "--sockets": dict(type=positive_int),
    "--cores": dict(type=positive_int, help="cores per socket"),
    "--kernels": dict(type=int, help="fleet size (minimum 3)"),
    "--sites": dict(type=int, help="replication factor (minimum 3)"),
    "--locks": dict(type=positive_int, help="shard locks per busy kernel"),
    "--tasks-per-lock": dict(type=positive_int),
    "--cs-ns": dict(type=int, help="critical-section length"),
    "--duration-ms": dict(
        type=float, help="simulated workload duration in milliseconds"
    ),
    "--max-regression": dict(
        type=float, help="per-kernel SLO guard avg-wait regression budget"
    ),
    "--max-concurrent-kernels": dict(
        type=positive_int, help="wave width after the canary wave"
    ),
    "--quorum": dict(
        type=fraction,
        help="fraction of kernels that must pass for the degraded rollout",
    ),
    "--journal-dir": dict(
        help="directory for the per-kernel + fleet journals "
        "(default: a fresh temp directory)"
    ),
    "--seed": dict(type=int),
    "--audit": dict(action="store_true", help="print the full audit log"),
    "--journal": dict(help="journal path (default: a fresh temp directory)"),
    "--max-tail-regression": dict(type=float),
    "--rate-per-ms": dict(
        type=float,
        help="base Poisson arrival rate per kernel (events per simulated ms)",
    ),
    "--burst-scale": dict(type=float, help="rate multiplier during the burst phase"),
    "--waiter-penalty-ns": dict(
        type=int,
        help="per-active-waiter hold inflation (the coherence collapse "
        "physics; high enough that the collapsed service rate falls "
        "below the base arrival rate)",
    ),
    "--trace-seed": dict(
        type=int,
        help="trace-generator seed (the burst shape; kernel seeds come "
        "from --seed)",
    ),
    "--max-skew-increase": dict(
        type=float,
        help="phase 3's tightened per-socket fairness budget (the "
        "over-aggressive cap must blow through it)",
    ),
}

_LOCKS_ONE_KERNEL = "shard locks to register"
_PAPER_BUDGET = " (default: the paper's 20%%)"
_TMP_JOURNAL_DIR = "fleet journal directory (default: tmpdir)"
_REQUEST_CS = "per-request hold time"
_TRACE_DURATION = "trace duration in simulated milliseconds"

#: Option runs several scenarios share, in the order they take them.
_MACHINE = (("--sockets", 2), ("--cores", 8))
_ONE_KERNEL = (
    ("--locks", 4, _LOCKS_ONE_KERNEL),
    ("--tasks-per-lock", 4),
    ("--cs-ns", 300),
    ("--duration-ms", 4.0),
)
_FLEET = (
    ("--locks", 4),
    ("--tasks-per-lock", 4),
    ("--cs-ns", 300),
    ("--duration-ms", 8.0),
    ("--max-regression", 0.20),
    ("--max-concurrent-kernels", 2),
)
_SEED_AUDIT = (("--seed", 7), ("--audit", False))

#: ``(name, runner, help, options)``; each option is ``(flag, default)``
#: or ``(flag, default, help)``.
_SUBCOMMANDS = (
    (
        "rollout",
        run_rollout_scenario,
        "bad policy canaries and rolls back; good policy goes ACTIVE",
        (
            *_MACHINE,
            *_ONE_KERNEL,
            ("--max-regression", 0.20, "SLO guard avg-wait regression budget" + _PAPER_BUDGET),
            ("--seed", 7),
            ("--kernels", 1, "run the scenario on N independent kernels (default 1)"),
            ("--audit", False),
        ),
    ),
    (
        "drill",
        run_drill_scenario,
        "kill the daemon mid-canary, recover from the journal, "
        "then trip the circuit breaker",
        (
            *_MACHINE,
            *_ONE_KERNEL,
            ("--journal", None),
            ("--seed", 7),
            ("--kernels", 1, "drill N independent kernels, each on its own journal shard"),
            ("--audit", False),
        ),
    ),
    (
        "fleet",
        run_fleet_scenario,
        "placement-aware waves across many kernels: bad policy halts "
        "the fleet and reverts; good policy goes fleet-wide; mid-wave "
        "crash recovers from the journals",
        (*_MACHINE, ("--kernels", 3), *_FLEET, ("--journal-dir", None), *_SEED_AUDIT),
    ),
    (
        "fleet-degraded",
        run_fleet_degraded_scenario,
        "kill a member mid-wave: any-breach halts and converges to "
        "stock, quorum completes degraded; reinstate + recover drains "
        "the journaled revert debt",
        (
            *_MACHINE,
            ("--kernels", 4, "fleet size (minimum 4)"),
            *_FLEET,
            ("--quorum", 0.5),
            ("--journal-dir", None),
            *_SEED_AUDIT,
        ),
    ),
    (
        "replicated",
        run_replicated_scenario,
        "journals replicated over N-site groups: leader death fails "
        "over mid-wave, a recovered follower is read-gated until a "
        "committed write, and concurrent overlapping rollouts "
        "serialize (first committer wins)",
        (*_MACHINE, ("--kernels", 3), ("--sites", 3), *_FLEET, *_SEED_AUDIT),
    ),
    (
        "scrub",
        run_scrub_scenario,
        "flip bytes in replicated and unreplicated policy stores: "
        "scrub detects, quorum peers repair, snapshots replay, and a "
        "rotten unreplicated shard quarantines with salvage + debt",
        (
            *_MACHINE,
            ("--kernels", 3),
            ("--sites", 3),
            *_FLEET,
            (
                "--journal-dir",
                None,
                "directory for phase 3's unreplicated journal shards "
                "(default: a fresh temp directory)",
            ),
            *_SEED_AUDIT,
        ),
    ),
    (
        "partition",
        run_partition_scenario,
        "simulated network fabric: a mid-rollout partition halts "
        "any-breach with classified rpc-exhausted debt, a deadline "
        "rollout completes degraded under quorum, a scheduled "
        "asymmetric split fences the stale leader, and the heal "
        "reconciles every replica",
        (
            *_MACHINE,
            ("--kernels", 4, "fleet size (minimum 4)"),
            ("--sites", 3),
            *_FLEET,
            ("--quorum", 0.5, "fraction of kernels that must pass the degraded rollout"),
            *_SEED_AUDIT,
        ),
    ),
    (
        "guards",
        run_guards_scenario,
        "tail guard catches a per-lock p99 regression the avg guard "
        "misses; pooled fleet verdict trips on cross-kernel evidence",
        (
            ("--sockets", 2),
            ("--cores", 8),
            ("--locks", 4, _LOCKS_ONE_KERNEL),
            ("--tasks-per-lock", 2),
            ("--cs-ns", 400),
            ("--duration-ms", 4.0),
            ("--max-regression", 0.20, "avg-wait budget the old guard judges by" + _PAPER_BUDGET),
            ("--max-tail-regression", 0.50, "per-lock p99 regression budget for the tail guard"),
            ("--seed", 7),
            ("--journal-dir", None, _TMP_JOURNAL_DIR),
        ),
    ),
    (
        "traffic",
        run_traffic_scenario,
        "trace-driven load: malthusian knee check, then the same "
        "policy passes the pooled tail guard under a steady trace and "
        "is halted with an attributed breach under a burst trace",
        (
            ("--sockets", 2),
            ("--cores", 8),
            ("--rate-per-ms", 150.0),
            ("--burst-scale", 8.0),
            ("--cs-ns", 500, _REQUEST_CS),
            ("--duration-ms", 4.0, _TRACE_DURATION),
            ("--max-tail-regression", 0.60, "pooled p99 regression budget for the tail guard"),
            ("--seed", 7),
            ("--journal-dir", None, _TMP_JOURNAL_DIR),
            ("--audit", False),
        ),
    ),
    (
        "adapt",
        run_adapt_scenario,
        "adaptive overload defense: the loop detects a trace-driven "
        "collapse on pooled fleet evidence, self-proposes a Malthusian "
        "cull and keeps it; a mid-propose kill is recovered without "
        "leaving an unjudged cull; an over-aggressive cap is rolled "
        "back by the fairness guard",
        (
            ("--sockets", 2),
            ("--cores", 4),
            ("--rate-per-ms", 100.0),
            ("--burst-scale", 8.0),
            ("--cs-ns", 500, _REQUEST_CS),
            ("--waiter-penalty-ns", 2000),
            ("--duration-ms", 4.0, _TRACE_DURATION),
            ("--trace-seed", 42),
            ("--max-skew-increase", 0.10),
            ("--seed", 42),
            ("--journal-dir", None, "journal directory (default: tmpdir)"),
            ("--audit", False),
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.concordd",
        description="Run scripted concordd control-plane scenarios.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, runner, help_text, options in _SUBCOMMANDS:
        scenario = sub.add_parser(name, help=help_text)
        for flag, default, *own_help in options:
            spec = dict(_OPTIONS[flag], default=default)
            if own_help:
                spec["help"] = own_help[0]
            scenario.add_argument(flag, **spec)
        scenario.set_defaults(runner=runner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.duration_ms <= 0:
        print("error: --duration-ms must be positive", file=sys.stderr)
        return 2
    args.duration_ns = int(args.duration_ms * 1e6)
    return args.runner(args)


if __name__ == "__main__":
    raise SystemExit(main())
