"""Replicated control plane, fleet-level: members whose policy journals
are :class:`~repro.replication.journal.ReplicatedJournal`\\ s over
3-site replica groups, driven through real rollouts.

Covers the ISSUE's acceptance invariants: a leader death mid-rollout
fails over within the wave, a member restart fences stale leases, site
probes escalate into group failovers, two concurrent overlapping
rollouts commit exactly once, and — under sampled replication-site
chaos plus a guaranteed site kill — the fleet converges with no split
brain, no lost committed acks, and the recovered-site read gate intact.
"""

import pytest

from repro.controlplane import PolicyState
from repro.faults import (
    SITE_REPLICATION_APPEND,
    SITE_REPLICATION_READ,
    FaultPlan,
    InjectedCrash,
    injected,
    sample_plan,
)
from repro.fleet import (
    FleetCoordinator,
    FleetManager,
    FleetRolloutState,
    HealthMonitor,
    HealthState,
    RolloutPlanner,
)
from repro.replication import (
    ReplicaGroup,
    ReplicatedJournal,
    SerializationLedger,
    SiteState,
    SiteUnreadable,
    StaleLeaderFenced,
    TxnStatus,
)

from tests._fleet_util import (
    ROLLOUT_KWARGS,
    add_member,
    good_factory,
    learn,
    meter_factory,
)
from tests.test_chaos import assert_converged_and_debt_free

PLANNER = dict(max_concurrent_kernels=2, canary_kernels=1, bake_ns=100_000)


def replicated_fleet(**daemon_kwargs):
    """The usual three-kernel fleet, every member journaling through its
    own 3-site replica group."""
    fleet = FleetManager()
    groups = {}
    for name, locks, seed, tasks in (
        ("k0", 2, 11, 1),
        ("k1", 3, 12, 3),
        ("k2", 3, 13, 4),
    ):
        groups[name] = ReplicaGroup(name)
        add_member(
            fleet,
            name,
            locks=locks,
            seed=seed,
            tasks_per_lock=tasks,
            replica_group=groups[name],
            **daemon_kwargs,
        )
    return fleet, groups


class TestReplicatedMembers:
    def test_members_journal_through_their_replica_groups(self):
        fleet, groups = replicated_fleet()
        for member in fleet.members():
            assert isinstance(member.journal, ReplicatedJournal)
        coord = FleetCoordinator(fleet, journal=ReplicaGroup("fleet").journal())
        result = coord.execute(
            RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet)),
            good_factory,
            **ROLLOUT_KWARGS,
        )
        assert result.state is FleetRolloutState.COMPLETE
        for name, group in groups.items():
            assert group.commit_index > 0
            member = fleet.member(name)
            assert member.journal.last_transition("numa-good")["to"] == "ACTIVE"
            ping = member.daemon.ping()
            assert ping["replication"]["commit_index"] == group.commit_index
            assert ping["replication"]["leader"] == group.leader.name

    def test_member_restart_fences_the_lease(self):
        fleet, groups = replicated_fleet()
        member, group = fleet.member("k1"), groups["k1"]
        stale = group.lease()
        member.restart()
        assert group.lease_epoch >= member.epoch
        with pytest.raises(StaleLeaderFenced):
            group.append({"kind": "client", "client": "x"}, lease=stale)
        # The restarted daemon itself (no lease pinned) writes fine.
        member.journal.heartbeat(int(member.kernel.now))
        assert group.commit_index >= 1


class TestLeaderFailoverMidRollout:
    def test_leader_kill_mid_rollout_failover_completes_the_wave(self):
        fleet, groups = replicated_fleet()
        group = groups["k1"]
        old_leader = group.leader.name
        coord = FleetCoordinator(fleet, journal=ReplicaGroup("fleet").journal())
        plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
        kill = FaultPlan(seed=1, name="kill-leader")
        kill.fail(SITE_REPLICATION_APPEND, times=1, match={"replica": old_leader})
        with injected(kill):
            result = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
        assert kill.fired[SITE_REPLICATION_APPEND] == 1
        assert result.state is FleetRolloutState.COMPLETE
        assert all(
            fleet.member(k).daemon.records["numa-good"].state
            is PolicyState.ACTIVE
            for k in plan.kernels()
        )
        assert group.failovers >= 1 and group.leader.name != old_leader
        assert group.site(old_leader).state is SiteState.DOWN
        # No lost committed acks: the full committed log reads back.
        assert len(group.entries()) == group.commit_index
        assert fleet.member("k1").journal.last_transition("numa-good")["to"] == "ACTIVE"

    def test_mid_wave_crash_recovers_over_replicated_fleet_journal(self):
        fleet, groups = replicated_fleet()
        fleet_group = ReplicaGroup("fleet")
        plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
        coord = FleetCoordinator(fleet, journal=fleet_group.journal())
        kill = FaultPlan(seed=1, name="kill9")
        kill.crash("fleet.wave.checkpoint", after=1, times=1)
        with injected(kill):
            with pytest.raises(InjectedCrash):
                coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
        fresh = FleetCoordinator(fleet, journal=fleet_group.journal())
        resumed = fresh.recover(good_factory, **ROLLOUT_KWARGS)
        assert resumed is not None
        assert resumed.state is FleetRolloutState.COMPLETE
        assert resumed.resumed_from_wave == 1


class TestSiteProbes:
    def test_site_probe_escalation_fails_the_site_and_fails_over(self):
        fleet, groups = replicated_fleet()
        group = groups["k1"]
        leader = group.leader.name
        monitor = HealthMonitor(fleet, dead_after=2)
        dark = FaultPlan(seed=1, name="dark-site")
        dark.fail(SITE_REPLICATION_READ, times=None, match={"replica": leader})
        with injected(dark):
            first = monitor.probe_sites("k1")
            second = monitor.probe_sites("k1")
        assert not first[leader].ok and not second[leader].ok
        assert monitor.state(leader) is HealthState.DEAD
        assert group.site(leader).state is SiteState.DOWN
        assert group.leader.name != leader and group.failovers == 1

    def test_probe_all_with_sites_covers_every_replica(self):
        fleet, groups = replicated_fleet()
        records = HealthMonitor(fleet).probe_all(include_sites=True)
        site_keys = [k for k in records if "/site" in k]
        assert len(site_keys) == 9 and all(records[k].ok for k in site_keys)

    def test_recovering_site_probes_ok_but_read_gated(self):
        fleet, groups = replicated_fleet()
        group = groups["k2"]
        follower = next(s for s in group.sites if s is not group.leader)
        group.fail_site(follower.name)
        group.recover_site(follower.name)
        record = HealthMonitor(fleet).probe_sites("k2")[follower.name]
        assert record.ok and "read-gated" in record.detail


class TestConcurrentRollouts:
    def test_overlapping_rollouts_exactly_one_commits(self):
        fleet, groups = replicated_fleet()
        placement = learn(fleet)
        fleet_group = ReplicaGroup("fleet")
        ledger = SerializationLedger(journal=fleet_group.journal())
        coord_a = FleetCoordinator(
            fleet, journal=fleet_group.journal(), client_id="coord-a", ledger=ledger
        )
        coord_b = FleetCoordinator(
            fleet, journal=fleet_group.journal(), client_id="coord-b", ledger=ledger
        )
        plan_a = RolloutPlanner(**PLANNER).plan("numa-good", placement)
        plan_b = RolloutPlanner(**PLANNER).plan("meter", placement)
        txn_b = coord_b.open_transaction(plan_b)  # concurrent from here on
        result_a = coord_a.execute(plan_a, good_factory, **ROLLOUT_KWARGS)
        result_b = coord_b.execute(plan_b, meter_factory, **ROLLOUT_KWARGS)

        assert result_a.state is FleetRolloutState.COMPLETE
        assert result_a.txn.status is TxnStatus.COMMITTED
        assert result_b.state is FleetRolloutState.HALTED
        assert "serialization conflict" in result_b.halt_cause
        assert txn_b.status is TxnStatus.ABORTED
        assert [t.txn_id for t in ledger.committed()] == ["numa-good@coord-a"]
        events = [e.get("event") for e in fleet_group.journal().entries()]
        assert "serialization-conflict" in events and "txn-abort" in events
        for member in fleet.members():
            assert member.daemon.records["numa-good"].state is PolicyState.ACTIVE
            record = member.daemon.records.get("meter")
            assert record is None or not record.live

    def test_sequential_rollouts_do_not_conflict(self):
        fleet, groups = replicated_fleet()
        placement = learn(fleet)
        ledger = SerializationLedger()
        coord = FleetCoordinator(
            fleet, journal=ReplicaGroup("fleet").journal(), ledger=ledger
        )
        first = coord.execute(
            RolloutPlanner(**PLANNER).plan("numa-good", placement),
            good_factory,
            **ROLLOUT_KWARGS,
        )
        second = coord.execute(
            RolloutPlanner(**PLANNER).plan("meter", placement),
            meter_factory,
            **ROLLOUT_KWARGS,
        )
        assert first.state is FleetRolloutState.COMPLETE
        assert second.state is FleetRolloutState.COMPLETE
        assert len(ledger.committed()) == 2

    def test_halted_rollout_aborts_its_transaction(self):
        from tests._fleet_util import bad_factory

        fleet, groups = replicated_fleet(max_regression=0.05)
        ledger = SerializationLedger()
        coord = FleetCoordinator(
            fleet, journal=ReplicaGroup("fleet").journal(), ledger=ledger
        )
        result = coord.execute(
            RolloutPlanner(**PLANNER).plan("bad-numa", learn(fleet)),
            bad_factory,
            **ROLLOUT_KWARGS,
        )
        assert result.state is FleetRolloutState.HALTED
        assert result.txn is not None and result.txn.status is TxnStatus.ABORTED
        assert not ledger.committed()


def test_chaos_replicated_rollout_invariants(chaos_seed):
    """RF=3 under a sampled ``replication.site.*`` chaos plan *plus* one
    guaranteed leader kill mid-rollout: whatever fires, the rollout
    completes or halts+reverts cleanly, the fleet converges (no split
    fleet), no committed ack is lost, there is no split brain, and a
    recovered site stays read-gated until the next committed write."""
    fleet, groups = replicated_fleet()
    placement = learn(fleet)
    fleet_group = ReplicaGroup("fleet")
    journal = fleet_group.journal()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", placement)
    coord = FleetCoordinator(fleet, journal=journal)

    chaos = sample_plan(chaos_seed, extra=("replication",))
    victim = groups["k1"].leader.name
    chaos.fail(SITE_REPLICATION_APPEND, times=1, match={"replica": victim})
    outcome = None
    with injected(chaos):
        try:
            outcome = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
        except InjectedCrash:
            pass
        except Exception:
            pass  # a typed failure aborts the rollout; invariants must hold

    if outcome is None or outcome.state not in (
        FleetRolloutState.COMPLETE,
        FleetRolloutState.HALTED,
    ):
        fresh = FleetCoordinator(fleet, journal=journal)
        fresh.recover(good_factory, **ROLLOUT_KWARGS)
    assert_converged_and_debt_free(fleet, journal, "numa-good")

    for group in groups.values():
        # No lost committed acks: the committed log reads back whole.
        assert len(group.entries()) == group.commit_index
        # No split brain: one UP leader, no site past the group epoch.
        assert group.leader.state is SiteState.UP
        assert all(
            s.lease_epoch_seen <= group.lease_epoch for s in group.sites
        )

    # The recovered-site read gate holds even after the chaos.
    group = groups["k2"]
    down = [s for s in group.sites if s.state is SiteState.DOWN]
    casualty = down[0] if down else group.fail_site(
        next(s.name for s in group.sites if s is not group.leader)
    )
    group.recover_site(casualty.name)
    with pytest.raises(SiteUnreadable):
        casualty.read(group.commit_index)
    member = fleet.member("k2")
    member.journal.heartbeat(int(member.kernel.now))
    assert casualty.readable
    assert casualty.read(group.commit_index) == group.entries()
