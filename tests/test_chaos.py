"""Randomized chaos runs: sampled fault plans, invariant assertions.

Unlike the targeted injection tests, these do not know which faults
will fire — :func:`repro.faults.chaos.sample_plan` draws a plan from
``--chaos-seed`` (CI passes fresh seeds; the default seeds make the
suite deterministic).  The contract is therefore not "the rollout
succeeded" but the invariants that must hold under *any* survivable
fault plan:

* the fleet is never split — every kernel patched, or every kernel
  stock, after recovery;
* no leaked installations — every loaded program belongs to a live
  record that owns it;
* the journal and the kernel agree after recovery.

A red seed reproduces bit-for-bit: ``pytest tests/test_chaos.py
--chaos-seed N``.
"""

import pytest

from repro.bpf.maps import HashMap
from repro.concord import Concord
from repro.concord.policy import PolicySpec
from repro.controlplane import (
    Concordd,
    PolicyJournal,
    PolicyState,
    PolicySubmission,
    SLOGuard,
)
from repro.controlplane import AdaptationLoop, culling_impl_factory
from repro.faults import (
    CHAOS_ADAPTIVE_SITES,
    SITE_FLEET_MEMBER_CALL,
    InjectedCrash,
    injected,
    sample_plan,
)
from repro.fleet import (
    FleetCoordinator,
    FleetManager,
    FleetRolloutState,
    HealthMonitor,
    RolloutPlanner,
)
from repro.kernel import Kernel
from repro.locks.culling import CullingLock
from repro.workloads.malthus import MalthusianBench
from repro.locks.base import HOOK_LOCK_ACQUIRED
from repro.sim import Topology
from repro.tools.scenario import shard_kernel, spawn_shard_workload

from tests._fleet_util import CS_NS, ROLLOUT_KWARGS, add_member, good_factory, learn

PLANNER = dict(max_concurrent_kernels=2, canary_kernels=1, bake_ns=100_000)

METER_SOURCE = """
def meter(ctx):
    hits.add(ctx.tid, 1)
    return 0
"""


def assert_no_leaked_programs(concord, records):
    """Every loaded program is owned by a live record."""
    owned = set()
    for record in records.values():
        if record.live:
            owned.update(spec.name for spec in record.submission.specs)
    leaked = set(concord.policies) - owned
    assert not leaked, f"leaked programs: {sorted(leaked)}"


def test_sampled_plan_is_deterministic(chaos_seed):
    one, two = sample_plan(chaos_seed), sample_plan(chaos_seed)
    assert len(one.rules) == len(two.rules)
    for a, b in zip(one.rules, two.rules):
        assert (a.site, a.delay_ns, a.times, a.after, a.error) == (
            b.site,
            b.delay_ns,
            b.times,
            b.after,
            b.error,
        )
    assert 2 <= len(one.rules) <= 4


def test_unknown_chaos_group_is_rejected():
    # A misspelt group would otherwise arm nothing and pass silently.
    with pytest.raises(ValueError, match="nett"):
        sample_plan(3, extra=("nett",))


def test_chaos_single_kernel_rollout(chaos_seed):
    """One daemon, one journal, a sampled adversary; after the dust
    settles and recovery runs, the kernel holds exactly what the
    records say it holds."""
    kernel = shard_kernel(2, 4, chaos_seed, 3)
    concord = Concord(kernel)
    journal = PolicyJournal()
    daemon = Concordd(
        concord,
        guard=SLOGuard(max_avg_wait_regression=0.50),
        journal=journal,
        canary_fraction=0.5,
    )
    daemon.register_client("ops", allowed_selectors=("svc.*",))
    spawn_shard_workload(kernel, kernel.now + 6_000_000, 2, CS_NS)

    submission = PolicySubmission(
        spec=PolicySpec(
            name="meter",
            hook=HOOK_LOCK_ACQUIRED,
            source=METER_SOURCE,
            maps={"hits": HashMap("meter.hits", max_entries=4096)},
            lock_selector="svc.*.lock",
        )
    )
    plan = sample_plan(chaos_seed)
    crashed = False
    with injected(plan):
        try:
            daemon.submit("ops", submission)
            daemon.rollout("meter", **ROLLOUT_KWARGS)
        except InjectedCrash:
            crashed = True
        except Exception:
            pass  # a typed denial/failure is a fine outcome under chaos

    if crashed or daemon.records:
        # The process is gone (or suspect): restart over the same
        # journal, chaos cleared — the operator's second try.
        daemon = Concordd(
            concord,
            guard=SLOGuard(max_avg_wait_regression=0.50),
            journal=journal,
            canary_fraction=0.5,
        )
        daemon.recover()
    assert_no_leaked_programs(concord, daemon.records)
    record = daemon.records.get("meter")
    if record is not None and record.state is PolicyState.ACTIVE:
        assert "meter" in concord.policies


def test_chaos_fleet_rollout_never_splits(chaos_seed):
    """The headline invariant under a sampled adversary: whatever fires,
    the fleet converges to all-patched or all-stock."""
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1, journal=PolicyJournal())
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=3, journal=PolicyJournal())
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4, journal=PolicyJournal())
    placement = learn(fleet)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", placement)
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)

    chaos = sample_plan(chaos_seed)
    outcome = None
    with injected(chaos):
        try:
            outcome = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
        except InjectedCrash:
            pass
        except Exception:
            pass  # typed failure: rollout aborted, invariants must hold

    if outcome is None or outcome.state not in (
        FleetRolloutState.COMPLETE,
        FleetRolloutState.HALTED,
    ):
        # Crashed or aborted mid-flight: recover with the chaos cleared.
        fresh = FleetCoordinator(fleet, journal=journal)
        fresh.recover(good_factory, **ROLLOUT_KWARGS)

    assert_converged_and_debt_free(fleet, journal, "numa-good")


def test_chaos_member_death_never_splits_or_strands_debt(chaos_seed):
    """Member-outage chaos: probe/heartbeat/member-call/debt-drain
    faults (plus one guaranteed outage that outlasts the coordinator's
    retry envelope).  After reinstatement + recovery, the fleet is
    uniform and every journaled revert debt is drained."""
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1, journal=PolicyJournal())
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=3, journal=PolicyJournal())
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4, journal=PolicyJournal())
    placement = learn(fleet)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", placement)
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    monitor = HealthMonitor(fleet, dead_after=2, on_dead=coord.quarantine)

    chaos = sample_plan(chaos_seed)
    chaos.fail(SITE_FLEET_MEMBER_CALL, times=4, after=1)
    with injected(chaos):
        for _ in range(2):
            monitor.probe_all()  # sampled probe faults may kill members here
        try:
            coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
        except InjectedCrash:
            pass
        except Exception:
            pass  # typed failure: rollout aborted, invariants must hold

    assert_converged_and_debt_free(fleet, journal, "numa-good")


def assert_converged_and_debt_free(fleet, journal, policy):
    """Reinstate the quarantined, recover, and assert the ISSUE's
    invariant: no split fleet, no undrained revert debt, no leaks."""
    for name in list(fleet.quarantined()):
        fleet.reinstate(name)
    sweeper = FleetCoordinator(fleet, journal=journal)
    sweeper.recover(good_factory, **ROLLOUT_KWARGS)
    assert not sweeper.debt, f"undrained revert debt: {sweeper.debt}"

    # The journal agrees: every revert-debt has a later debt-drained.
    owed = set()
    for entry in journal.entries():
        key = (entry.get("kernel"), entry.get("rollout"))
        if entry.get("event") == "revert-debt":
            owed.add(key)
        elif entry.get("event") == "debt-drained":
            owed.discard(key)
    assert not owed, f"journal still owes reverts: {sorted(owed)}"

    states = {}
    for member in fleet.members():
        record = member.daemon.records.get(policy)
        states[member.name] = (
            "patched" if record is not None and record.live else "stock"
        )
        assert_no_leaked_programs(member.concord, member.daemon.records)
    patched = [k for k, s in states.items() if s == "patched"]
    assert len(patched) in (0, len(states)), f"split fleet: {states}"


class TestAdaptiveChaosSampler:
    def test_existing_seeds_byte_identical(self):
        # The adaptive rule is drawn after the main loop and only when
        # its group is armed, so pre-existing chaos seeds keep their
        # exact plans.
        for seed in (3, 11, 19, 23, 31, 42):
            before = sample_plan(seed)
            after = sample_plan(seed, extra=())
            assert [repr(r) for r in before.rules] == [repr(r) for r in after.rules]

    def test_adaptive_rule_only_appends(self):
        for seed in range(30):
            base = sample_plan(seed)
            with_adaptive = sample_plan(seed, extra=("adaptive",))
            base_reprs = [repr(r) for r in base.rules]
            adaptive_reprs = [repr(r) for r in with_adaptive.rules]
            assert adaptive_reprs[: len(base_reprs)] == base_reprs
            extra = adaptive_reprs[len(base_reprs):]
            assert len(extra) <= 1
            for r in extra:
                assert any(site in r for site in CHAOS_ADAPTIVE_SITES)

    def test_some_seed_draws_an_adaptive_rule(self):
        drawn = sum(
            len(sample_plan(seed, extra=("adaptive",)).rules)
            - len(sample_plan(seed).rules)
            for seed in range(30)
        )
        assert drawn > 5  # ~half the seeds should draw a rule


def _adaptive_bench(seed):
    kernel = Kernel(Topology(sockets=2, cores_per_socket=4), seed=seed)
    bench = MalthusianBench()
    bench.setup(kernel)
    return kernel, bench


def _adaptive_loop(daemon):
    return AdaptationLoop(
        daemon=daemon,
        selector="bench.*",
        window_ns=400_000,
        baseline_ns=80_000,
        canary_ns=120_000,
        check_every_ns=20_000,
    )


def _spawn_malthus(kernel, bench, start, count):
    order = kernel.topology.fill_order()
    for index in range(start, start + count):
        kernel.spawn(
            lambda task, i=index: bench.worker(task, i),
            cpu=order[index],
            name=f"malthus-{index}",
        )


def assert_no_unjudged_cull(kernel, journal, daemon):
    """The adaptation loop's headline invariant: whatever fired, the
    journal never ends on an open ``cull-proposed``, and a culled impl
    is installed only under a *kept*, ACTIVE policy."""
    lock_of, open_proposals, kept = {}, {}, {}
    for entry in journal.entries():
        if entry.get("kind") != "adaptation":
            continue
        event, policy = entry.get("event"), entry.get("policy")
        if event == "cull-proposed":
            lock_of[policy] = entry.get("lock")
            open_proposals[policy] = entry
        elif event in ("cull-kept", "cull-rolled-back"):
            open_proposals.pop(policy, None)
            if event == "cull-kept":
                kept[lock_of.get(policy)] = policy
    assert not open_proposals, f"unjudged culls: {sorted(open_proposals)}"
    site = kernel.locks.get("bench.malthus")
    if isinstance(site.core.impl, CullingLock):
        policy = kept.get("bench.malthus")
        assert policy is not None, "culled impl installed without a kept cull"
        record = daemon.records.get(policy)
        assert record is not None and record.state is PolicyState.ACTIVE


def test_chaos_adaptive_loop_never_leaves_unjudged_cull(chaos_seed):
    """Run the adaptation loop over a genuine collapse with a sampled
    adversary (general chaos plus the ``adaptive.*`` sites).  Whatever
    fires — a skipped detect, an aborted proposal, a crashed canary —
    after the dust settles and recovery runs, no proposed-but-unjudged
    cull is installed."""
    kernel, bench = _adaptive_bench(chaos_seed)
    concord = Concord(kernel)
    journal = PolicyJournal()
    daemon = Concordd(concord, journal=journal)
    loop = _adaptive_loop(daemon)
    _spawn_malthus(kernel, bench, 0, 4)
    kernel.run(until=kernel.now + 100_000)
    assert loop.run_once().outcome == "idle"  # healthy reference, chaos-free
    _spawn_malthus(kernel, bench, 4, 4)
    kernel.run(until=kernel.now + 100_000)

    plan = sample_plan(chaos_seed, extra=("adaptive",))
    died = False
    with injected(plan):
        try:
            loop.run(passes=4)
        except InjectedCrash:
            died = True
        except Exception:
            died = True  # an escaped error kills adaptd just the same

    if died:
        # Restart over the same journal, chaos cleared: the daemon's
        # recovery tears down any crashed canary, then the loop's
        # recovery resolves whatever proposal the crash left open.
        registry = {
            f"culling-cap{cap}": culling_impl_factory(cap) for cap in range(1, 9)
        }
        daemon = Concordd(concord, journal=journal, impl_registry=registry)
        daemon.recover()
        loop = _adaptive_loop(daemon)
        loop.recover()
        loop.run(passes=2)  # the operator's second try

    assert_no_unjudged_cull(kernel, journal, daemon)
