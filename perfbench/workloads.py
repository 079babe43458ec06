"""The benchmark's three workloads.

Each workload builds a fresh world from a seed (set-up, timed apart),
then drives a fixed amount of simulated work as timed *items* and
checks every item's simulated output.  All load comes from this one
single-threaded process; the engine and the coherence model run on
every path.

* ``fig2_sweep`` — closed loop, one will-it-scale worker per CPU on the
  paper's 8x10 machine: ``HashTableBench`` in all three Fig. 2(c) modes
  at 1..80 threads.  The paper's headline exhibit; long-lived workers
  spin on contended lines across 8 sockets and ShflLock shuffles its
  queue.  The BPF VM runs only in ``concord-shfllock``; no control plane.
* ``trace_replay`` — open loop: seeded Poisson arrivals on a diurnal arc
  with a 6x burst, two tenants, four shard ShflLocks on a 2x8 kernel, one
  task per request, no Concord.  The engine churns short-lived tasks and
  holds many future-dated arrivals; the VM and Concord do no work, so
  this is the bypass workload for VM and Concord changes.
* ``fleet_rollout`` — three kernels running shard workloads, each member
  journaling through a 3-site ``ReplicaGroup`` over a jittery
  ``Fabric``: a rollout that HALTs and reverts, one that COMPLETEs, and
  one crashed mid-wave that a fresh coordinator recovers from the
  journals.  The only workload that runs admission, verification,
  canaries, livepatch, the profiler's BPF hooks, journals, replication,
  netsim and the coordinator.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

from repro.bpf.maps import HashMap
from repro.concord.policies import make_numa_policy
from repro.concord.policy import PolicySpec
from repro.controlplane import PolicyJournal, PolicyState, PolicySubmission, SLOGuard
from repro.faults import FaultPlan, InjectedCrash, injected
from repro.fleet import (
    FleetCoordinator,
    FleetManager,
    FleetRolloutState,
    HealthMonitor,
    PlacementMap,
    RolloutPlanner,
)
from repro.kernel import Kernel
from repro.locks import ShflLock
from repro.locks.base import HOOK_LOCK_ACQUIRED
from repro.netsim import Fabric, LinkModel
from repro.replication import ReplicaGroup
from repro.sim import Topology, ops, paper_machine
from repro.storage import entries_digest
from repro.tools.concordd import bad_numa_submission
from repro.traffic import (
    LockBinding,
    Phase,
    PhaseSchedule,
    PoissonProcess,
    Tenant,
    TenantSet,
    TraceGenerator,
    TraceRunner,
)
from repro.workloads import HashTableBench, run_throughput
from repro.workloads.hashtable import MODES

__all__ = ["Item", "Timer", "World", "fingerprint", "sim_counts", "workloads"]


@dataclass
class Item:
    """One timed span of fixed simulated work, and how many of the items
    it carries (sweep points, requests, rollouts) were attempted and
    failed their output check."""

    name: str
    seconds: float = 0.0
    attempted: int = 1
    failed: int = 0

    def fail(self) -> None:
        self.failed = self.attempted


class Timer:
    """Times the items of one round; checks run outside the timed block."""

    def __init__(self) -> None:
        self.items: List[Item] = []

    @contextmanager
    def item(self, name: str, attempted: int = 1) -> Iterator[Item]:
        item = Item(name, attempted=attempted)
        start = time.perf_counter()
        yield item
        item.seconds = time.perf_counter() - start
        self.items.append(item)


class World:
    """What one round built: the objects its counters are read from."""

    def engines(self) -> List:
        return []

    def sites(self) -> List:
        return []

    def fabrics(self) -> List:
        return []

    def groups(self) -> List:
        return []

    def member_clock_ns(self) -> int:
        return 0

    def outputs(self) -> Any:
        """Simulated outputs only: the determinism fingerprint's input."""
        raise NotImplementedError

    def close(self) -> None:
        pass


COUNT_NAMES = (
    "sim.events",
    "sim.sched.tasks_finished",
    "sim.cache.atomics",
    "sim.cache.transfers",
    "sim.cache.remote_transfers",
    "sim.cache.local_spins",
    "locks.acquisitions",
    "locks.contended",
    "locks.shuffle_moves",
    "netsim.delivered",
    "netsim.dropped",
    "replication.commits",
    "fleet.member_sim_ns",
)


def sim_counts(world: World) -> Dict[str, int]:
    """Simulated counts from public counters; identical for one seed."""
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for engine in world.engines():
        stats = engine.stats.snapshot()
        counts["sim.events"] += engine.events_processed
        counts["sim.sched.tasks_finished"] += stats.get("sched.tasks_finished", 0)
        for name in ("atomics", "transfers", "remote_transfers", "local_spins"):
            counts[f"sim.cache.{name}"] += stats.get(f"cache.{name}", 0)
    # No workload switches a lock's implementation, so the current one
    # holds every acquisition made at the site.
    for site in world.sites():
        impl = site.impl
        counts["locks.acquisitions"] += impl.acquisitions
        counts["locks.contended"] += impl.contended_acquisitions
        counts["locks.shuffle_moves"] += getattr(impl, "shuffle_moves", 0)
    for fabric in world.fabrics():
        counts["netsim.delivered"] += fabric.delivered
        counts["netsim.dropped"] += fabric.dropped
    for group in world.groups():
        counts["replication.commits"] += group.commit_index
    counts["fleet.member_sim_ns"] = world.member_clock_ns()
    return counts


def fingerprint(outputs: Any) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# fig2_sweep
# ----------------------------------------------------------------------
class Fig2World(World):
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.topology = paper_machine()
        #: (mode, threads, workload, result) per completed point.
        self.points: List[tuple] = []

    def engines(self):
        return [bench.site.engine for _m, _n, bench, _r in self.points]

    def sites(self):
        return [bench.site for _m, _n, bench, _r in self.points]

    def outputs(self):
        return [
            [mode, threads, result.ops, bench.site.engine.now]
            for mode, threads, bench, result in self.points
        ]


class Fig2Sweep:
    """Fig. 2(c): ``HashTableBench`` in every mode at 1..80 threads."""

    THREADS = (1, 10, 20, 40, 80)
    DURATION_NS = 500_000
    WARMUP_NS = 200_000

    def build(self, seed: int) -> Fig2World:
        return Fig2World(seed)

    def run(self, world: Fig2World, timer: Timer) -> None:
        for mode in MODES:
            for threads in self.THREADS:
                with timer.item(f"{mode}@{threads}") as item:
                    bench = HashTableBench(mode)
                    result = run_throughput(
                        bench,
                        world.topology,
                        threads,
                        duration_ns=self.DURATION_NS,
                        warmup_ns=self.WARMUP_NS,
                        seed=world.seed,
                    )
                world.points.append((mode, threads, bench, result))
                if result.ops <= 0:
                    item.fail()
        # The band benchmarks/test_fig2c_hashtable.py asserts.
        rate = {(m, n): r.ops_per_msec for m, n, _b, r in world.points}
        ratios = [rate["concord-shfllock", n] / rate["shfllock", n] for n in self.THREADS]
        machinery = [
            rate["concord-nopolicy", n] / rate["shfllock", n] for n in self.THREADS
        ]
        if not (0.65 < min(ratios) < 1.0 and min(machinery) > 0.7):
            for item in timer.items:
                item.fail()


# ----------------------------------------------------------------------
# trace_replay
# ----------------------------------------------------------------------
class TraceWorld(World):
    def __init__(self, trace, runner, kernel, schedule) -> None:
        self.trace = trace
        self.runner = runner
        self.kernel = kernel
        self.schedule = schedule

    def engines(self):
        return [self.kernel.engine]

    def sites(self):
        return [site for _name, site in self.kernel.locks.items()]

    def outputs(self):
        rows = []
        for phase in self.trace.phase_names():
            stats = self.runner.phase_stats(phase)
            rows.append(
                [phase, stats.arrivals, stats.completions, stats.wait_p50(), stats.wait_p99()]
            )
        return {"phases": rows, "now": self.kernel.now}


class TraceReplay:
    """A diurnal day with a 6x burst on the early peak, replayed open-loop."""

    DAY_NS = 250_000_000
    RATE_PER_MS = 120.0
    SHARDS = 4
    DRAIN_NS = 5_000_000
    SLICE_NS = 5_000_000

    def build(self, seed: int) -> TraceWorld:
        arc = PhaseSchedule.diurnal(self.DAY_NS, steps=6, trough_scale=0.3)
        phases = list(arc.phases)
        phases.insert(3, Phase("burst", self.DAY_NS // 10, 6.0))
        tenants = TenantSet(
            [
                Tenant("web", 6.0, [(f"shard{i}", 1.0) for i in range(self.SHARDS)]),
                Tenant("batch", 1.0, [("shard0", 1.0), ("shard1", 1.0)]),
            ]
        )
        schedule = PhaseSchedule(phases)
        trace = TraceGenerator(
            schedule, PoissonProcess(self.RATE_PER_MS), tenants, seed=seed
        ).generate()
        bindings = {
            f"shard{i}": LockBinding(f"svc.shard{i}.lock", cs_ns=400)
            for i in range(self.SHARDS)
        }
        kernel = Kernel(Topology(sockets=2, cores_per_socket=8), seed=seed)
        for i in range(self.SHARDS):
            kernel.add_lock(f"svc.shard{i}.lock", ShflLock(kernel.engine, name=f"s{i}"))
        return TraceWorld(trace, TraceRunner(trace, bindings), kernel, schedule)

    def run(self, world: TraceWorld, timer: Timer) -> None:
        """Replay in short slices of simulated time, one span each, so a
        slow stretch of host time taints a few short spans, not the day.
        Items are requests, carried by each phase's first span: one that
        never completes has failed."""
        trace, runner, kernel = world.trace, world.runner, world.kernel
        with timer.item("install", attempted=0):
            runner.install(kernel, tag="bench")
        first_spans = {}
        for start, phase in world.schedule.boundaries():
            end = start + phase.duration_ns
            for index, at in enumerate(range(start, end, self.SLICE_NS)):
                with timer.item(f"replay:{phase.name}.{index}", attempted=0) as item:
                    kernel.run(until=min(at + self.SLICE_NS, end))
                first_spans.setdefault(phase.name, item)
        with timer.item("drain", attempted=0):
            kernel.run(until=trace.total_ns + self.DRAIN_NS)
        for name, span in first_spans.items():
            stats = runner.phase_stats(name)
            span.attempted = stats.arrivals
            span.failed = stats.arrivals - stats.completions
        trough = min(
            (p for p in world.schedule.phases if p.name != "burst"),
            key=lambda p: p.rate_scale,
        )
        if runner.phase_stats("burst").wait_p99() <= runner.phase_stats(trough.name).wait_p99():
            for span in first_spans.values():
                span.fail()


# ----------------------------------------------------------------------
# fleet_rollout
# ----------------------------------------------------------------------
SELECTOR = "svc.*.lock"

STEADY_SOURCE = """
def steady(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def _good_numa(member) -> PolicySubmission:
    return PolicySubmission(spec=make_numa_policy(lock_selector=SELECTOR, name="numa-good"))


def _bad_numa(member) -> PolicySubmission:
    return bad_numa_submission(SELECTOR)


def _steady(member) -> PolicySubmission:
    return PolicySubmission(
        spec=PolicySpec(
            name="steady",
            hook=HOOK_LOCK_ACQUIRED,
            source=STEADY_SOURCE,
            maps={"hits": HashMap("steady.hits", max_entries=65536)},
            lock_selector=SELECTOR,
        )
    )


def _shard_worker(site, stop_at: int, cs_ns: int):
    def worker(task):
        task.stats["ops"] = 0
        while task.engine.now < stop_at:
            yield from site.acquire(task)
            yield ops.Delay(cs_ns)
            yield from site.release(task)
            task.stats["ops"] += 1
            yield ops.Delay(120)

    return worker


class FleetWorld(World):
    def __init__(self, seed: int, journal_dir: str) -> None:
        self.seed = seed
        self.journal_dir = journal_dir
        self.fleet = FleetManager()
        self.replica_groups: List[ReplicaGroup] = []
        self.fabric = Fabric(seed=seed)
        self.fabric.set_model(LinkModel(latency_ns=400, jitter_ns=100))
        self.fleet_journal_path = f"{journal_dir}/fleet.jsonl"
        self.rollouts: List[Any] = []
        # Filled in by FleetRollout.build.
        self.placement = self.rollout_kwargs = self.planner = None
        self.monitor = self.coordinator = None

    def members(self):
        return self.fleet.members()

    def engines(self):
        return [m.kernel.engine for m in self.members()]

    def sites(self):
        return [site for m in self.members() for _name, site in m.kernel.locks.items()]

    def fabrics(self):
        return [self.fabric]

    def groups(self):
        return self.replica_groups

    def member_clock_ns(self):
        return sum(m.kernel.now for m in self.members())

    def outputs(self):
        return {
            "rollouts": [
                [r.state.name, sorted(r.outcomes.items()), r.resumed_from_wave]
                for r in self.rollouts
            ],
            "clocks": [m.kernel.now for m in self.members()],
            "journals": [entries_digest(m.daemon.journal.entries()) for m in self.members()],
            "fleet_journal": entries_digest(PolicyJournal(self.fleet_journal_path).entries()),
        }

    def close(self) -> None:
        shutil.rmtree(self.journal_dir, ignore_errors=True)


class FleetRollout:
    """Halt-and-revert, complete, and crash-then-recover over one fleet."""

    KERNELS = 3
    SITES = 3
    DURATION_NS = 1_500_000
    CS_NS = 300

    def __init__(self, scratch_root: str) -> None:
        self.scratch_root = scratch_root

    def build(self, seed: int) -> FleetWorld:
        world = FleetWorld(seed, tempfile.mkdtemp(prefix=".perfbench-", dir=self.scratch_root))
        try:
            self._populate(world)
        except BaseException:
            world.close()
            raise
        return world

    def _populate(self, world: FleetWorld) -> None:
        seed = world.seed
        for index in range(self.KERNELS):
            name = f"k{index}"
            kernel = Kernel(Topology(sockets=2, cores_per_socket=8), seed=seed + index)
            # k0 is quiet (the canary pick), the rest busy.
            for i in range(2 if index == 0 else 4):
                kernel.add_lock(f"svc.shard{i}.lock", ShflLock(kernel.engine, name=f"shard{i}"))
            group = ReplicaGroup(name, nr_sites=self.SITES, fabric=world.fabric)
            world.replica_groups.append(group)
            world.fleet.register(
                name,
                kernel,
                replica_group=group,
                guard=SLOGuard(max_avg_wait_regression=0.20),
                canary_fraction=0.5,
            )
            cpu = 0
            for lock in kernel.locks.select_names(SELECTOR):
                for _ in range(1 if index == 0 else 4):
                    worker = _shard_worker(
                        kernel.locks.get(lock), kernel.now + self.DURATION_NS, self.CS_NS
                    )
                    kernel.spawn(worker, cpu=cpu % kernel.topology.nr_cpus)
                    cpu += 1
        world.placement = PlacementMap.learn(
            world.fleet, SELECTOR, window_ns=self.DURATION_NS // 20
        )
        window = self.DURATION_NS // 10
        world.rollout_kwargs = dict(
            baseline_ns=window, canary_ns=2 * window, check_every_ns=window // 4
        )
        world.planner = RolloutPlanner(
            max_concurrent_kernels=2, canary_kernels=1, bake_ns=window // 2
        )
        world.monitor = HealthMonitor(world.fleet, fabric=world.fabric)
        world.coordinator = self._coordinator(world)

    def _coordinator(self, world: FleetWorld) -> FleetCoordinator:
        return FleetCoordinator(
            world.fleet,
            journal=PolicyJournal(world.fleet_journal_path),
            health=world.monitor,
            fabric=world.fabric,
            rpc_jitter_seed=world.seed,
        )

    def run(self, world: FleetWorld, timer: Timer) -> None:
        members = world.members()
        kwargs = world.rollout_kwargs

        def live(member, policy):
            record = member.daemon.records.get(policy)
            return (record is not None and record.live) or policy in member.concord.policies

        def active(member, policy):
            record = member.daemon.records.get(policy)
            return record is not None and record.state is PolicyState.ACTIVE

        plan = world.planner.plan("bad-numa", world.placement)
        with timer.item("rollout-halt") as item:
            halted = world.coordinator.execute(plan, _bad_numa, **kwargs)
        world.rollouts.append(halted)
        if halted.state is not FleetRolloutState.HALTED or any(
            live(m, "bad-numa") for m in members
        ):
            item.fail()

        plan = world.planner.plan("numa-good", world.placement)
        with timer.item("rollout-complete") as item:
            complete = world.coordinator.execute(plan, _good_numa, **kwargs)
        world.rollouts.append(complete)
        if complete.state is not FleetRolloutState.COMPLETE or not all(
            active(m, "numa-good") for m in members
        ):
            item.fail()

        plan = world.planner.plan("steady", world.placement)
        kill = FaultPlan(seed=world.seed, name="fleet-kill9")
        kill.crash("fleet.wave.checkpoint", after=1, times=1)
        crashed = False
        with timer.item("rollout-crash") as item:
            try:
                with injected(kill):
                    world.coordinator.execute(plan, _steady, **kwargs)
            except InjectedCrash:
                crashed = True
        wave0 = plan.waves[0].kernels
        partial = all(
            active(world.fleet.member(k), "steady") for k in wave0
        ) and not any(
            "steady" in world.fleet.member(k).daemon.records
            for k in plan.kernels()
            if k not in wave0
        )
        if not (crashed and partial):
            item.fail()

        with timer.item("recover") as item:
            resumed = self._coordinator(world).recover(_steady, **kwargs)
        if resumed is not None:
            world.rollouts.append(resumed)
        if (
            resumed is None
            or resumed.state is not FleetRolloutState.COMPLETE
            or resumed.resumed_from_wave != 1
            or not all(active(m, "steady") for m in members)
        ):
            item.fail()


def workloads(scratch_root: str) -> Dict[str, Any]:
    return {
        "fig2_sweep": Fig2Sweep(),
        "trace_replay": TraceReplay(),
        "fleet_rollout": FleetRollout(scratch_root),
    }
