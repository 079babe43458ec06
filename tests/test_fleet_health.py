"""Fleet health: probes, quarantine, epoch fencing, revert debt, and
degraded-mode rollouts.

The scenarios follow the same shape as the coordinator tests — a small
fleet under shard load, a plan, an execute — with one twist: a member
stops answering.  What varies is *when* it stops (before the wave, at
its bake, during the unwind) and what the fleet must converge to
(degraded completion under quorum, all-stock under any-breach, drained
debt after reinstatement).
"""

import pytest

from repro.controlplane import JournalError, PolicyJournal, PolicyState
from repro.faults import (
    SITE_FLEET_DEBT_DRAIN,
    SITE_FLEET_HEARTBEAT,
    SITE_FLEET_MEMBER_CALL,
    SITE_FLEET_PROBE,
    FaultPlan,
    injected,
)
from repro.fleet import (
    EpochFenced,
    FleetCoordinator,
    FleetManager,
    FleetRollout,
    FleetRolloutState,
    HealthMonitor,
    HealthState,
    MemberUnreachable,
    RolloutPlanner,
)

from tests._fleet_util import (
    ROLLOUT_KWARGS,
    add_member,
    good_factory,
    learn,
    three_kernel_fleet,
)

PLANNER = dict(max_concurrent_kernels=2, canary_kernels=1, bake_ns=100_000)


def four_kernel_fleet():
    """k0 quiet (canary), then k1/k2 as a wave, then k3 — a fleet wide
    enough that a 0.5 quorum survives one dead member.  Every member
    gets its own journal shard (sharing one would interleave replays)."""
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1, journal=PolicyJournal())
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=3, journal=PolicyJournal())
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4, journal=PolicyJournal())
    add_member(fleet, "k3", locks=3, seed=14, tasks_per_lock=4, journal=PolicyJournal())
    return fleet


def three_journaled_fleet():
    fleet = FleetManager()
    add_member(fleet, "k0", locks=2, seed=11, tasks_per_lock=1, journal=PolicyJournal())
    add_member(fleet, "k1", locks=3, seed=12, tasks_per_lock=3, journal=PolicyJournal())
    add_member(fleet, "k2", locks=3, seed=13, tasks_per_lock=4, journal=PolicyJournal())
    return fleet


def kill_at_bake(victim):
    """A persistent outage that first answers (so the victim gets
    patched), then drops every later call — the classic die-mid-wave."""
    fault = FaultPlan(seed=1, name=f"kill-{victim}")
    fault.fail(
        SITE_FLEET_MEMBER_CALL,
        times=None,
        after=1,
        match={"kernel": victim, "op": "bake"},
    )
    return fault


def journal_events(journal):
    return [e.get("event") for e in journal.entries() if e.get("kind") == "fleet"]


# ----------------------------------------------------------------------
# HealthMonitor probing
# ----------------------------------------------------------------------
def test_probe_healthy_member_heartbeats_its_journal():
    fleet = three_journaled_fleet()
    monitor = HealthMonitor(fleet)
    record = monitor.probe("k0")
    assert record.ok and record.detail == "ok"
    assert monitor.state("k0") is HealthState.HEALTHY
    assert record.epoch == 0
    beats = [
        e for e in fleet.member("k0").journal.entries() if e.get("kind") == "heartbeat"
    ]
    assert len(beats) == 1 and beats[0]["member"] == "k0"
    # Heartbeats are replay noise a recovering daemon must shrug off.
    fleet.member("k0").restart()
    summary = fleet.member("k0").daemon.recover()
    assert summary["replayed"] == 0


def test_probe_failures_escalate_and_success_resets():
    fleet = three_kernel_fleet()
    monitor = HealthMonitor(fleet, dead_after=3)
    fault = FaultPlan(seed=1)
    fault.fail(SITE_FLEET_PROBE, times=3, match={"member": "k1"})
    with injected(fault):
        monitor.probe("k1")
        assert monitor.state("k1") is HealthState.SUSPECT
        monitor.probe("k1")
        assert monitor.state("k1") is HealthState.SUSPECT
        monitor.probe("k1")
        assert monitor.state("k1") is HealthState.DEAD
        assert monitor.state("k0") is HealthState.HEALTHY
    record = monitor.probe("k1")  # fault cleared: next probe succeeds
    assert record.ok
    assert monitor.state("k1") is HealthState.HEALTHY
    assert monitor.failures("k1") == 0
    assert len(monitor.history("k1")) == 4


def test_heartbeat_loss_fails_the_probe():
    fleet = three_journaled_fleet()
    monitor = HealthMonitor(fleet)
    fault = FaultPlan(seed=1)
    fault.fail(SITE_FLEET_HEARTBEAT, times=1)
    with injected(fault):
        record = monitor.probe("k0")
    assert not record.ok
    assert "heartbeat" in record.detail
    assert monitor.state("k0") is HealthState.SUSPECT


def test_dead_daemon_fails_the_ping_probe():
    fleet = three_kernel_fleet()
    fleet.member("k2").daemon.detach()  # process died, nobody restarted it
    monitor = HealthMonitor(fleet)
    record = monitor.probe("k2")
    assert not record.ok
    assert "daemon" in record.detail


def test_dead_member_is_auto_quarantined_with_debt():
    fleet = three_kernel_fleet()
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    # Give k1 a live policy so the quarantine has something to owe.
    member = fleet.member("k1")
    member.daemon.register_client("fleet-coordinator", allowed_selectors=("*",))
    member.daemon.submit("fleet-coordinator", good_factory(member))
    member.daemon.rollout("numa-good", **ROLLOUT_KWARGS)
    assert member.daemon.records["numa-good"].state is PolicyState.ACTIVE

    monitor = HealthMonitor(fleet, dead_after=3, on_dead=coord.quarantine)
    fault = FaultPlan(seed=1)
    fault.fail(SITE_FLEET_PROBE, times=None, match={"member": "k1"})
    with injected(fault):
        for _ in range(3):
            monitor.probe_all()
    assert monitor.state("k1") is HealthState.DEAD
    assert fleet.is_quarantined("k1")
    assert [(d["kernel"], d["policy"]) for d in coord.debt] == [("k1", "numa-good")]
    events = journal_events(coord.journal)
    assert "quarantine" in events and "revert-debt" in events
    # probe_all skips out-of-rotation members; k1 history stops growing.
    before = len(monitor.history("k1"))
    monitor.probe_all()
    assert len(monitor.history("k1")) == before


# ----------------------------------------------------------------------
# Epoch fencing
# ----------------------------------------------------------------------
def test_epoch_fence_refuses_restarted_member():
    fleet = three_kernel_fleet()
    coord = FleetCoordinator(fleet)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    rollout = FleetRollout(plan)
    coord._reach("k1", "rollout", rollout)  # records epoch 0
    fleet.member("k1").restart()  # epoch 0 -> 1 under the rollout
    with pytest.raises(EpochFenced):
        coord._reach("k1", "bake", rollout)
    # Fences are not retried: one attempt, immediate refusal.
    assert rollout.epochs["k1"] == 0


def test_dead_per_monitor_is_unreachable_without_a_call():
    fleet = three_kernel_fleet()
    monitor = HealthMonitor(fleet, dead_after=1)
    coord = FleetCoordinator(fleet, health=monitor)
    fault = FaultPlan(seed=1)
    fault.fail(SITE_FLEET_PROBE, times=1, match={"member": "k2"})
    with injected(fault):
        monitor.probe("k2")
    assert monitor.state("k2") is HealthState.DEAD
    with pytest.raises(MemberUnreachable):
        coord._reach("k2", "rollout")


def test_transient_member_fault_is_absorbed_by_retries():
    fleet = three_kernel_fleet()
    coord = FleetCoordinator(fleet, journal=PolicyJournal(), member_retries=2)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    fault = FaultPlan(seed=1)
    fault.fail(SITE_FLEET_MEMBER_CALL, times=2)  # two blips, then fine
    with injected(fault):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert rollout.state is FleetRolloutState.COMPLETE
    assert rollout.unreachable_kernels() == []
    assert not coord.debt


# ----------------------------------------------------------------------
# Degraded rollouts
# ----------------------------------------------------------------------
def test_quorum_rollout_completes_degraded_with_debt():
    fleet = four_kernel_fleet()
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    planner = RolloutPlanner(verdict_mode="quorum", quorum=0.5, **PLANNER)
    plan = planner.plan("numa-good", learn(fleet))
    victim = plan.waves[1].kernels[0]
    with injected(kill_at_bake(victim)):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.COMPLETE
    assert rollout.unreachable_kernels() == [victim]
    survivors = [k for k in plan.kernels() if k != victim]
    assert all(rollout.outcomes[k] == "ACTIVE" for k in survivors)
    assert fleet.is_quarantined(victim)
    assert [(d["kernel"], d["policy"]) for d in coord.debt] == [(victim, "numa-good")]
    events = journal_events(journal)
    for expected in ("member-dead", "quarantine", "revert-debt", "complete"):
        assert expected in events, f"missing {expected!r} in {events}"
    # The victim still runs the policy — that is exactly what the debt
    # records; the *reachable* fleet is uniformly at plan.
    assert fleet.member(victim).daemon.records["numa-good"].state is PolicyState.ACTIVE


def test_any_breach_rollout_halts_and_books_debt():
    fleet = four_kernel_fleet()
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    victim = plan.waves[1].kernels[0]
    with injected(kill_at_bake(victim)):
        rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)

    assert rollout.state is FleetRolloutState.HALTED
    assert rollout.unreachable_kernels() == [victim]
    # Every reachable kernel converged to stock.
    for member in fleet.members():
        if member.name == victim:
            continue
        record = member.daemon.records.get("numa-good")
        assert record is None or not record.live
        assert "numa-good" not in member.concord.policies
    assert fleet.is_quarantined(victim)
    assert [(d["kernel"], d["policy"]) for d in coord.debt] == [(victim, "numa-good")]


def test_reinstate_and_recover_drains_debt():
    fleet = four_kernel_fleet()
    journal = PolicyJournal()
    coord = FleetCoordinator(fleet, journal=journal)
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    victim = plan.waves[1].kernels[0]
    with injected(kill_at_bake(victim)):
        coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert coord.debt

    epoch_before = fleet.member(victim).epoch
    coord.reinstate(victim)
    assert fleet.member(victim).epoch > epoch_before
    recovered = coord.recover(good_factory, **ROLLOUT_KWARGS)
    assert recovered is not None and recovered.state is FleetRolloutState.UNWOUND
    assert not coord.debt
    assert "debt-drained" in journal_events(journal)
    # The reinstated member is back to stock like everyone else.
    record = fleet.member(victim).daemon.records.get("numa-good")
    assert record is None or not record.live
    assert "numa-good" not in fleet.member(victim).concord.policies

    # And a fresh coordinator rebuilding debt from the journal finds
    # nothing outstanding.
    fresh = FleetCoordinator(fleet, journal=journal)
    fresh._load_debt([e for e in journal.entries() if e.get("kind") == "fleet"])
    assert not fresh.debt


def test_debt_drain_retries_through_transient_faults():
    fleet = three_journaled_fleet()
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    member = fleet.member("k1")
    member.daemon.register_client("fleet-coordinator", allowed_selectors=("*",))
    member.daemon.submit("fleet-coordinator", good_factory(member))
    member.daemon.rollout("numa-good", **ROLLOUT_KWARGS)
    coord.quarantine("k1", "operator drill")
    assert coord.debt
    coord.reinstate("k1")
    fleet.member("k1").daemon.recover()

    fault = FaultPlan(seed=1)
    fault.fail(SITE_FLEET_DEBT_DRAIN, times=2)  # two bounces, then ok
    with injected(fault):
        drained = coord.drain_debt()
    assert [d["kernel"] for d in drained] == ["k1"]
    assert not coord.debt
    record = fleet.member("k1").daemon.records.get("numa-good")
    assert record is None or not record.live


def test_drain_skips_members_still_out_of_service():
    fleet = three_kernel_fleet()
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    member = fleet.member("k2")
    member.daemon.register_client("fleet-coordinator", allowed_selectors=("*",))
    member.daemon.submit("fleet-coordinator", good_factory(member))
    member.daemon.rollout("numa-good", **ROLLOUT_KWARGS)
    coord.quarantine("k2", "still dark")
    assert coord.drain_debt() == []
    assert coord.debt  # stays booked until the member comes back


# ----------------------------------------------------------------------
# Satellite bugfix: members deregistered mid-rollout
# ----------------------------------------------------------------------
def test_deregistered_member_becomes_unreachable_not_a_crash():
    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    fleet.deregister("k1")  # gone before its wave starts
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    # any-breach: the unreachable member breaches the verdict, the
    # reachable fleet converges to stock — no FleetError out of execute.
    assert rollout.state is FleetRolloutState.HALTED
    assert rollout.outcomes["k1"].startswith("UNREACHABLE")
    for name in ("k0", "k2"):
        record = fleet.member(name).daemon.records.get("numa-good")
        assert record is None or not record.live


def test_unwind_survives_member_deregistered_after_patching():
    fleet = three_kernel_fleet()
    plan = RolloutPlanner(**PLANNER).plan("numa-good", learn(fleet))
    coord = FleetCoordinator(fleet, journal=PolicyJournal())
    rollout = coord.execute(plan, good_factory, **ROLLOUT_KWARGS)
    assert rollout.state is FleetRolloutState.COMPLETE

    fleet.deregister("k2", force=True)  # operator yanks a patched member
    stale = FleetRollout(plan)
    stale.outcomes = {k: "ACTIVE" for k in plan.kernels()}
    # Used to raise FleetError out of the unwind (the member lookup sat
    # outside the try); now it is recorded and the rest still reverts.
    coord._revert_patched(stale, "test unwind")
    assert "k2" in stale.revert_failures
    assert [(d["kernel"], d["policy"]) for d in coord.debt] == [("k2", "numa-good")]
    for name in ("k0", "k1"):
        record = fleet.member(name).daemon.records.get("numa-good")
        assert record is None or not record.live
