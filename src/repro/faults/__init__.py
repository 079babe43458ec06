"""Deterministic fault injection for the policy pipeline.

Usage::

    from repro.faults import FaultPlan, injected

    plan = FaultPlan(seed=7)
    plan.fail("concord.verifier", times=2)        # two verifier flakes
    plan.stall("livepatch.drain", delay_ns=50_000)  # drain won't quiesce
    with injected(plan):
        daemon.rollout("policy")

For randomized coverage, :func:`sample_plan` draws a survivable plan
from a seed (the ``--chaos-seed`` CI mode).
"""

from .chaos import (
    CHAOS_ADAPTIVE_SITES,
    CHAOS_CRASH_SITES,
    CHAOS_FAIL_SITES,
    CHAOS_GROUPS,
    CHAOS_MEMBER_SITES,
    CHAOS_NET_SITES,
    CHAOS_REPLICATION_SITES,
    CHAOS_STALL_SITES,
    CHAOS_STORAGE_SITES,
    CHAOS_TRAFFIC_SITES,
    sample_plan,
)
from .plan import FaultError, FaultPlan, FaultRule, InjectedCrash
from .registry import (
    SITE_ADMISSION_DECISION,
    SITE_BPF_HELPER,
    SITE_BPF_VM_BUDGET,
    SITE_BPFFS_PIN,
    SITE_BPFFS_UNPIN,
    SITE_CANARY_CHECKPOINT,
    SITE_FLEET_DEBT_DRAIN,
    SITE_FLEET_HEARTBEAT,
    SITE_FLEET_MEMBER_CALL,
    SITE_FLEET_PROBE,
    SITE_FLEET_REVERT,
    SITE_FLEET_WAVE,
    SITE_JOURNAL_APPEND,
    SITE_JOURNAL_FSYNC,
    SITE_JOURNAL_REPLAY,
    SITE_ADAPTIVE_DETECT,
    SITE_ADAPTIVE_PROPOSE,
    SITE_NET_LINK_DELIVER,
    SITE_NET_PARTITION_FLIP,
    SITE_PATCH_DRAIN,
    SITE_PATCH_ENABLE,
    SITE_PROFILER_HISTOGRAM,
    SITE_PROFILER_SNAPSHOT,
    SITE_REPLICATION_APPEND,
    SITE_REPLICATION_CATCHUP,
    SITE_REPLICATION_READ,
    SITE_STORAGE_CORRUPT_DIGEST,
    SITE_STORAGE_CORRUPT_LINE,
    SITE_STORAGE_CORRUPT_SNAPSHOT,
    SITE_TRAFFIC_PHASE_SHIFT,
    SITE_VERIFIER,
    active,
    clear,
    fault_point,
    injected,
    install,
)

__all__ = [
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "fault_point",
    "install",
    "clear",
    "active",
    "injected",
    "sample_plan",
    "CHAOS_ADAPTIVE_SITES",
    "CHAOS_FAIL_SITES",
    "CHAOS_GROUPS",
    "CHAOS_STALL_SITES",
    "CHAOS_CRASH_SITES",
    "CHAOS_MEMBER_SITES",
    "CHAOS_NET_SITES",
    "CHAOS_REPLICATION_SITES",
    "CHAOS_STORAGE_SITES",
    "CHAOS_TRAFFIC_SITES",
    "SITE_BPF_HELPER",
    "SITE_BPF_VM_BUDGET",
    "SITE_VERIFIER",
    "SITE_BPFFS_PIN",
    "SITE_BPFFS_UNPIN",
    "SITE_PROFILER_SNAPSHOT",
    "SITE_PROFILER_HISTOGRAM",
    "SITE_PATCH_ENABLE",
    "SITE_PATCH_DRAIN",
    "SITE_CANARY_CHECKPOINT",
    "SITE_ADMISSION_DECISION",
    "SITE_JOURNAL_APPEND",
    "SITE_JOURNAL_FSYNC",
    "SITE_JOURNAL_REPLAY",
    "SITE_FLEET_WAVE",
    "SITE_FLEET_REVERT",
    "SITE_FLEET_PROBE",
    "SITE_FLEET_HEARTBEAT",
    "SITE_FLEET_MEMBER_CALL",
    "SITE_FLEET_DEBT_DRAIN",
    "SITE_REPLICATION_APPEND",
    "SITE_REPLICATION_READ",
    "SITE_REPLICATION_CATCHUP",
    "SITE_STORAGE_CORRUPT_LINE",
    "SITE_STORAGE_CORRUPT_SNAPSHOT",
    "SITE_STORAGE_CORRUPT_DIGEST",
    "SITE_TRAFFIC_PHASE_SHIFT",
    "SITE_NET_PARTITION_FLIP",
    "SITE_NET_LINK_DELIVER",
    "SITE_ADAPTIVE_DETECT",
    "SITE_ADAPTIVE_PROPOSE",
]
