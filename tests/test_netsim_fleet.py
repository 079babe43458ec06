"""The fleet over the fabric: partitions, deadlines, convergence.

Where :mod:`tests.test_netsim` exercises the network layer alone, this
file wires it into the stacks that ride it: the coordinator reaching
members through a :class:`Fabric`, a :class:`ReplicaGroup` whose quorum
traffic can be cut, and — the headline property — that after *any*
seeded :class:`PartitionSchedule` heals, scrub plus one anti-entropy
write converge every copy to the same committed prefix and no stale
leader's write ever lands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import PolicyJournal
from repro.faults import (
    SITE_NET_LINK_DELIVER,
    SITE_NET_PARTITION_FLIP,
    FaultPlan,
    InjectedCrash,
    injected,
    sample_plan,
)
from repro.fleet import FleetCoordinator, FleetRolloutState, RolloutPlanner
from repro.netsim import Fabric, LinkModel, sample_partition_schedule
from repro.replication import NoQuorum, ReplicaGroup, StaleLeaderFenced
from repro.replication.site import SiteState
from repro.storage import Scrubber
from repro.tools.scenario import spawn_shard_workload

from tests._fleet_util import (
    CS_NS,
    ROLLOUT_KWARGS,
    good_factory,
    learn,
    three_kernel_fleet,
)
from tests.test_chaos import assert_converged_and_debt_free

PLANNER = dict(max_concurrent_kernels=2, canary_kernels=1, bake_ns=100_000)


def fleet_events(journal, event=None):
    entries = [e for e in journal.entries() if e.get("kind") == "fleet"]
    if event is not None:
        entries = [e for e in entries if e.get("event") == event]
    return entries


# ----------------------------------------------------------------------
# Coordinator over the fabric
# ----------------------------------------------------------------------
def test_flat_fabric_changes_nothing():
    """A coordinator given an unconfigured fabric reaches the same
    verdict with the same outcomes as one left to build its own — a
    flat fabric draws no randomness and adds no delay."""
    bare_fleet = three_kernel_fleet()
    bare = FleetCoordinator(bare_fleet).execute(
        RolloutPlanner(**PLANNER).plan("numa-good", learn(bare_fleet)),
        good_factory,
        **ROLLOUT_KWARGS,
    )

    fabric = Fabric(seed=99)
    wired_fleet = three_kernel_fleet()
    wired = FleetCoordinator(wired_fleet, fabric=fabric).execute(
        RolloutPlanner(**PLANNER).plan("numa-good", learn(wired_fleet)),
        good_factory,
        **ROLLOUT_KWARGS,
    )

    assert bare.state is wired.state is FleetRolloutState.COMPLETE
    assert bare.outcomes == wired.outcomes
    assert bare.completed_waves == wired.completed_waves
    # The traffic really crossed the fabric — and none of it was lost.
    assert fabric.delivered > 0 and fabric.rejected == 0


def test_coordinator_without_a_fabric_still_crosses_one():
    """No ``fabric=`` still means a network: a message-drop rule on the
    default fabric cuts k2 off, and the loss is journaled as a
    classified ``rpc-exhausted`` like any other partition."""
    fleet = three_kernel_fleet()
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))

    drop = FaultPlan(seed=1, name="drop-k2")
    # Two drops outlast the envelope: first try + member_retries.
    drop.fail(SITE_NET_LINK_DELIVER, times=2, match={"dst": "k2"})
    with injected(drop):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert rollout.unreachable_kernels() == ["k2"]
    (exhausted,) = fleet_events(journal, "rpc-exhausted")
    assert exhausted["kernel"] == "k2"
    assert exhausted["classification"] == "unreachable"
    assert exhausted["attempts"] == 2
    assert "network" in exhausted["cause"]
    assert coord.fabric.delivered > 0


def test_partition_mid_rollout_quarantines_and_books_debt():
    """A timed partition cuts one member at its bake: the coordinator's
    envelope exhausts, the loss is journaled *classified*, the member
    is quarantined, and the patch it holds becomes revert debt."""
    fleet = three_kernel_fleet()
    fabric = Fabric(seed=5)
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal, fabric=fabric)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))

    kill = FaultPlan(seed=5, name="cut-k2")
    kill.stall(
        SITE_NET_PARTITION_FLIP,
        delay_ns=2_000_000,  # outlives the retry backoff: a real outage
        times=1,
        match={"dst": "k2", "op": "bake"},
    )
    with injected(kill):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert fabric.flips == 1 and fabric.rejected > 0
    assert rollout.state is FleetRolloutState.HALTED
    assert rollout.unreachable_kernels() == ["k2"]
    assert fleet.is_quarantined("k2")
    assert [(d["kernel"], d["policy"]) for d in coord.debt] == [("k2", "numa-good")]

    (exhausted,) = fleet_events(journal, "rpc-exhausted")
    assert exhausted["kernel"] == "k2" and exhausted["op"] == "bake"
    assert exhausted["classification"] == "unreachable"
    assert exhausted["attempts"] == 2  # first try + member_retries
    assert fleet_events(journal, "quarantine")[0]["kernel"] == "k2"
    assert fleet_events(journal, "revert-debt")[0]["kernel"] == "k2"

    # Heal, reinstate, drain: the debt is settled and journaled so.
    fabric.heal()
    coord.reinstate("k2")
    coord.drain_debt()
    assert not coord.debt
    assert fleet_events(journal, "debt-drained")


def test_slow_member_exhausts_deadline_not_attempts():
    """A member that stalls just under forever: per-delivery latency
    beyond the per-call timeout, retried until the *total* simulated
    deadline — not the attempt budget — gives out.  The journal entry
    says ``deadline-exceeded``, distinct from ``unreachable``."""
    fleet = three_kernel_fleet()
    fabric = Fabric(seed=5)
    journal = PolicyJournal()
    coord = FleetCoordinator(
        fleet,
        journal=journal,
        fabric=fabric,
        member_retries=4,
        rpc_timeout_ns=5_000,
        rpc_deadline_ns=40_000,
        rpc_jitter_seed=5,
    )
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))

    lag = FaultPlan(seed=5, name="lag-k2")
    lag.stall(SITE_NET_LINK_DELIVER, delay_ns=50_000, times=None, match={"dst": "k2"})
    with injected(lag):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.HALTED
    assert rollout.unreachable_kernels() == ["k2"]
    entries = fleet_events(journal, "rpc-exhausted")
    assert entries and all(e["kernel"] == "k2" for e in entries)
    first = entries[0]
    assert first["classification"] == "deadline-exceeded"
    assert first["attempts"] < 5  # time ran out with retries to spare
    assert first["elapsed_ns"] >= 40_000


# ----------------------------------------------------------------------
# Replica groups: partitioned is not failed
# ----------------------------------------------------------------------
def test_group_distinguishes_partitioned_site_from_failed():
    fabric = Fabric(seed=2)
    group = ReplicaGroup("k9", nr_sites=3, fabric=fabric)
    group.append({"n": 1})
    fabric.cut("k9", "k9/site2")  # quorum traffic origin -> one copy
    group.append({"n": 2})  # site2's ack dies on the cut link
    group.fail_site("k9/site1", cause="operator kill")

    health = group.health()["sites"]
    assert health["k9/site2"]["state"] == "DOWN"
    assert health["k9/site2"]["partitioned"] is True
    assert "partitioned" in health["k9/site2"]["down_cause"]
    assert health["k9/site1"]["state"] == "DOWN"
    assert health["k9/site1"]["partitioned"] is False
    assert health["k9/site1"]["down_cause"] == "operator kill"
    assert "[partitioned, log intact]" in group.site("site2").describe()
    assert "[partitioned, log intact]" not in group.site("site1").describe()

    # Heal + recover + one committed write: the cut copy catches up.
    fabric.heal()
    group.recover_site("site2")
    group.recover_site("site1")
    group.append({"n": 3})
    assert all(s.state is SiteState.UP for s in group.sites)
    for site in group.sites:
        assert site.committed_entries(group.commit_index) == group.entries()


def test_partition_of_quorum_fails_the_write_cleanly():
    fabric = Fabric(seed=2)
    group = ReplicaGroup("k9", nr_sites=3, fabric=fabric)
    group.append({"n": 1})
    fabric.partition([("k9",), ("k9/site0", "k9/site1", "k9/site2")])
    with pytest.raises(NoQuorum):
        group.append({"n": 2})
    assert group.commit_index == 1  # a failed append commits nothing
    # Every copy is down-as-partitioned, none down-as-failed.
    assert all(s.down_partitioned for s in group.sites)


# ----------------------------------------------------------------------
# The convergence property (satellite: any healed schedule converges)
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_any_healed_schedule_converges(seed):
    """For ANY seeded partition schedule: while it plays, writes either
    quorum-commit or fail typed (never a stale-leader escape); after it
    heals, recovery + one anti-entropy write + a scrub leave every site
    holding the same committed prefix."""
    fabric = Fabric(seed=seed)
    fabric.set_model(LinkModel(latency_ns=120, jitter_ns=60))
    group = ReplicaGroup("g", nr_sites=3, fabric=fabric)
    stale = group.lease()
    endpoints = ["g"] + [s.name for s in group.sites]
    total_ns = 600_000
    fabric.schedule = sample_partition_schedule(seed, endpoints, total_ns)

    committed = 0
    for step in range(1, 25):
        fabric.advance(step * 50_000)  # generous: outlives any sampled split
        for site in group.sites:
            if site.down_partitioned and all(
                fabric.reachable("g", s.name) for s in group.sites
            ):
                group.recover_site(site.name)
        try:
            group.append({"step": step})
            committed += 1
        except (NoQuorum, StaleLeaderFenced) as exc:
            # NoQuorum is legal mid-split; a stale-leader escape on a
            # leaseless quorum write never is.
            assert isinstance(exc, NoQuorum), exc

    # The schedule always ends healed; make sure time passed its tail.
    fabric.advance(10 * total_ns)
    assert fabric.applied and fabric.applied[-1].action == "heal"
    for site in group.sites:
        if site.state is SiteState.DOWN:
            group.recover_site(site.name)
    group.append({"kind": "anti-entropy"})  # catch-up ships with the commit

    if group.lease_epoch > stale.epoch:
        before = group.commit_index
        with pytest.raises(StaleLeaderFenced):
            group.append({"kind": "stale-write"}, lease=stale)
        assert group.commit_index == before  # fenced writes land nowhere

    assert Scrubber().scrub_group(group).ok
    reference = group.entries()
    assert len(reference) >= committed + 1
    for site in group.sites:
        assert site.committed_entries(group.commit_index) == reference


# ----------------------------------------------------------------------
# Sampled network chaos (seeded via --chaos-seed)
# ----------------------------------------------------------------------
def test_net_sites_default_keeps_existing_plans_identical(chaos_seed):
    """The chaos sampler's regression contract: with the ``net`` group
    unarmed, plans for existing seeds are byte-identical, and arming it
    only ever *appends* rules."""
    base = [repr(r) for r in sample_plan(chaos_seed).rules]
    off = [repr(r) for r in sample_plan(chaos_seed, extra=()).rules]
    assert base == off
    wired = [repr(r) for r in sample_plan(chaos_seed, extra=("net",)).rules]
    assert wired[: len(base)] == base
    assert len(wired) in (len(base), len(base) + 1)


def test_chaos_partitions_never_split_fleet_or_strand_debt(chaos_seed):
    """Sampled chaos with the network sites armed, the whole rollout
    routed through a fabric: whatever splits, after heal + recovery the
    fleet is uniform and every journaled revert debt is drained."""
    fleet = three_kernel_fleet(journal=PolicyJournal())
    fabric = Fabric(seed=chaos_seed)
    journal = PolicyJournal()  # off-fabric: a halt must be recordable
    coord = FleetCoordinator(
        fleet, journal=journal, fabric=fabric, rpc_jitter_seed=chaos_seed
    )
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))

    chaos = sample_plan(chaos_seed, extra=("net",))
    with injected(chaos):
        try:
            coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
        except InjectedCrash:
            pass
        except Exception:
            pass  # typed failure: rollout aborted, invariants must hold

    # Chaos cleared; timed flips self-heal, operator heals the rest and
    # re-arms the workload the burned sim-time drained.
    fabric.heal()
    for member in fleet.members():
        spawn_shard_workload(member.kernel, member.kernel.now + 6_000_000, 2, CS_NS)
    assert_converged_and_debt_free(fleet, journal, "numa-good")
