"""Placement: where each target lock instance actually lives.

A rollout planner that orders kernels by a sorted lock-name prefix
knows nothing about risk: two fleets with identical lock names can have
wildly different blast radii.  The :class:`PlacementMap` records, per
matched lock instance, the *observed* placement — which kernel it is
registered on, which socket its acquisitions are dominated by, and a
contention class — learned the same way the canary engine judges SLOs:
from profiler measurements, not configuration.

Learning runs two instruments per member over one measurement window:

* a :class:`~repro.concord.profiler.ProfileSession` over the matched
  locks (attempts/contention/wait aggregates → contention class);
* a one-program *socket probe* on the ``lock_acquired`` hook counting
  acquisitions per ``(lock, socket)`` → dominant socket.

Both are the framework's own machinery — loading the probe goes through
verify/pin/attach like any policy, so placement learning inherits every
safety property (and every fault site) of the pipeline it feeds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from ..bpf.maps import HashMap
from ..concord.policy import PolicySpec
from ..concord.profiler import ProfileSession
from ..locks.base import HOOK_LOCK_ACQUIRED

__all__ = ["LockPlacement", "PlacementMap", "PlacementRefresher"]

#: Socket-probe key packing: ``lock_id * _SOCKET_STRIDE + socket``.
_SOCKET_STRIDE = 64

_PROBE_SOURCE = """
def fleet_probe(ctx):
    sockets.add(ctx.lock_id * 64 + ctx.socket, 1)
"""

#: Contention-class weights used for blast-radius scoring.
_CLASS_WEIGHT = {"hot": 4, "warm": 2, "cold": 1}


class LockPlacement(NamedTuple):
    """Observed placement of one lock instance."""

    kernel: str
    lock_name: str
    #: dominant socket by acquisition count (ties break low; -1 when the
    #: window saw no acquisitions at all)
    socket: int
    #: contention class: "hot" / "warm" / "cold"
    contention: str
    acquired: int
    contended: int
    avg_wait_ns: float

    @property
    def weight(self) -> int:
        """Blast-radius contribution of this lock."""
        return _CLASS_WEIGHT[self.contention]


class PlacementMap:
    """Fleet-wide ``(kernel, lock) -> placement`` directory."""

    _seq = 0

    def __init__(
        self,
        placements: Iterable[LockPlacement],
        learned_at_ns: Optional[int] = None,
    ) -> None:
        self.placements: List[LockPlacement] = list(placements)
        #: When the learn window closed (max member clock at the end of
        #: measurement); ``None`` for hand-built or deserialized maps,
        #: which are therefore always considered stale.
        self.learned_at_ns = learned_at_ns
        self._by_kernel: Dict[str, List[LockPlacement]] = {}
        for placement in self.placements:
            self._by_kernel.setdefault(placement.kernel, []).append(placement)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    @classmethod
    def learn(
        cls,
        fleet,
        selector: str,
        window_ns: int = 200_000,
        hot_ratio: float = 0.40,
        warm_ratio: float = 0.05,
    ) -> "PlacementMap":
        """Measure every member's matching locks for ``window_ns``.

        ``hot_ratio`` / ``warm_ratio`` classify by contention ratio
        (contended acquisitions over attempts); a lock idle for the
        whole window is "cold" on socket ``-1``.
        """
        placements: List[LockPlacement] = []
        members = (
            fleet.active_members() if hasattr(fleet, "active_members") else fleet.members()
        )
        learned_at = 0
        for member in members:
            placements.extend(
                cls._learn_member(member, selector, window_ns, hot_ratio, warm_ratio)
            )
            learned_at = max(learned_at, member.kernel.now)
        return cls(placements, learned_at_ns=learned_at)

    @classmethod
    def _learn_member(
        cls, member, selector: str, window_ns: int, hot_ratio: float, warm_ratio: float
    ) -> List[LockPlacement]:
        locks = member.select_locks(selector)
        if not locks:
            return []
        concord = member.concord
        kernel = member.kernel
        cls._seq += 1
        probe_map = HashMap(f"fleet.probe{cls._seq}.sockets", max_entries=65536)
        probe_spec = PolicySpec(
            name=f"fleet.probe{cls._seq}.{member.name}",
            hook=HOOK_LOCK_ACQUIRED,
            source=_PROBE_SOURCE,
            maps={"sockets": probe_map},
            lock_selector="*",
        )
        lock_ids = {name: kernel.lock_id_by_name(name) for name in locks}
        session = ProfileSession(concord, locks)
        try:
            concord.load_policy(probe_spec, targets=locks)
            try:
                kernel.run(until=kernel.now + window_ns)
            finally:
                concord.unload_policy(probe_spec.name)
        finally:
            report = session.stop()

        placements = []
        nr_sockets = kernel.topology.sockets
        for name in locks:
            profile = report.by_name(name)
            attempts = profile.attempts if profile else 0
            contended = profile.contended if profile else 0
            acquired = profile.acquired if profile else 0
            avg_wait = profile.avg_wait_ns if profile else 0.0
            base = lock_ids[name] * _SOCKET_STRIDE
            by_socket = [
                probe_map.lookup(base + socket) or 0 for socket in range(nr_sockets)
            ]
            if any(by_socket):
                socket = max(range(nr_sockets), key=lambda s: (by_socket[s], -s))
            else:
                socket = -1
            ratio = contended / attempts if attempts else 0.0
            if attempts and ratio >= hot_ratio:
                contention = "hot"
            elif attempts and ratio >= warm_ratio:
                contention = "warm"
            else:
                contention = "cold"
            placements.append(
                LockPlacement(
                    kernel=member.name,
                    lock_name=name,
                    socket=socket,
                    contention=contention,
                    acquired=acquired,
                    contended=contended,
                    avg_wait_ns=avg_wait,
                )
            )
        return placements

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_stale(self, now_ns: int, max_age_ns: int) -> bool:
        """True when the learn window closed more than ``max_age_ns``
        before ``now_ns`` (pass the clock of whichever member you are
        about to act on — fleet members tick independently).  A map
        with no recorded learn time is always stale."""
        if self.learned_at_ns is None:
            return True
        return now_ns - self.learned_at_ns > max_age_ns

    def kernels(self) -> List[str]:
        return sorted(self._by_kernel)

    def for_kernel(self, kernel: str) -> List[LockPlacement]:
        return list(self._by_kernel.get(kernel, ()))

    def locks(self, kernel: str) -> List[str]:
        return sorted(p.lock_name for p in self._by_kernel.get(kernel, ()))

    def blast_radius(self, kernel: str) -> int:
        """Weighted size of what a bad policy would hurt on ``kernel``:
        hot locks count 4, warm 2, cold 1."""
        return sum(p.weight for p in self._by_kernel.get(kernel, ()))

    def drift(self, other: "PlacementMap") -> float:
        """Weighted fraction of placements that changed between maps.

        A ``(kernel, lock)`` entry counts as drifted when its contention
        class or dominant socket differs between the two maps, or when
        it exists in only one of them; each drifted entry contributes
        the heavier of its two weights (a lock that went hot matters
        more than one that went cold).  Returns 0.0 for two empty maps,
        1.0 for fully disjoint ones.
        """
        mine = {(p.kernel, p.lock_name): p for p in self.placements}
        theirs = {(p.kernel, p.lock_name): p for p in other.placements}
        total = 0
        drifted = 0
        for key in mine.keys() | theirs.keys():
            a, b = mine.get(key), theirs.get(key)
            weight = max(p.weight for p in (a, b) if p is not None)
            total += weight
            if (
                a is None
                or b is None
                or a.contention != b.contention
                or a.socket != b.socket
            ):
                drifted += weight
        return drifted / total if total else 0.0

    # ------------------------------------------------------------------
    def serialize(self) -> List[Dict[str, object]]:
        return [
            {
                "kernel": p.kernel,
                "lock": p.lock_name,
                "socket": p.socket,
                "contention": p.contention,
                "acquired": p.acquired,
                "contended": p.contended,
                "avg_wait_ns": round(p.avg_wait_ns, 1),
            }
            for p in self.placements
        ]

    @classmethod
    def deserialize(cls, entries: Iterable[Dict[str, object]]) -> "PlacementMap":
        return cls(
            LockPlacement(
                kernel=str(e["kernel"]),
                lock_name=str(e["lock"]),
                socket=int(e["socket"]),
                contention=str(e["contention"]),
                acquired=int(e.get("acquired", 0)),
                contended=int(e.get("contended", 0)),
                avg_wait_ns=float(e.get("avg_wait_ns", 0.0)),
            )
            for e in entries
        )

    def describe(self) -> str:
        header = f"{'kernel':<10} {'lock':<26} {'socket':>6} {'class':>6} {'acq':>8} {'avg wait':>10}"
        rows = [header, "-" * len(header)]
        for p in sorted(self.placements, key=lambda p: (p.kernel, p.lock_name)):
            rows.append(
                f"{p.kernel:<10} {p.lock_name:<26} {p.socket:>6} "
                f"{p.contention:>6} {p.acquired:>8} {p.avg_wait_ns:>8.0f}ns"
            )
        return "\n".join(rows)

    def __len__(self) -> int:
        return len(self.placements)

    def __repr__(self) -> str:
        return f"PlacementMap({len(self.placements)} locks on {len(self._by_kernel)} kernels)"


class PlacementRefresher:
    """Drift-triggered re-learning with a hysteresis band.

    Each :meth:`maybe_refresh` call re-measures the fleet and compares
    the probe map against the current one.  The map is **adopted** only
    when drift crosses ``adopt_above`` — and only once per excursion:
    after an adoption the refresher disarms, and re-arms when drift
    settles back below ``settle_below``.  The band is what keeps a noisy
    measurement window from flapping wave ordering: drift oscillating
    inside ``(settle_below, adopt_above)`` adopts nothing, and even a
    window that keeps re-crossing the adopt threshold replaces the map
    at most once until the fleet genuinely settles.

    Args:
        fleet: the membership directory to re-measure.
        selector: the lock selector the current map was learned over.
        current: the map in force (updated in place on adoption).
        window_ns: measurement window per refresh probe.
        adopt_above: weighted drift fraction at which a probe map is
            adopted (while armed).
        settle_below: drift fraction below which the refresher re-arms.
        hot_ratio / warm_ratio: forwarded to :meth:`PlacementMap.learn`.
    """

    def __init__(
        self,
        fleet,
        selector: str,
        current: PlacementMap,
        window_ns: int = 200_000,
        adopt_above: float = 0.25,
        settle_below: float = 0.10,
        hot_ratio: float = 0.40,
        warm_ratio: float = 0.05,
    ) -> None:
        if not 0.0 <= settle_below <= adopt_above <= 1.0:
            raise ValueError(
                "hysteresis band needs 0 <= settle_below <= adopt_above <= 1, "
                f"got {settle_below}/{adopt_above}"
            )
        self.fleet = fleet
        self.selector = selector
        self.current = current
        self.window_ns = window_ns
        self.adopt_above = adopt_above
        self.settle_below = settle_below
        self.hot_ratio = hot_ratio
        self.warm_ratio = warm_ratio
        self.armed = True
        self.last_drift: Optional[float] = None
        self.refreshes = 0
        self.adoptions = 0

    def maybe_refresh(self) -> "tuple[PlacementMap, bool]":
        """Probe the fleet; returns ``(map_in_force, adopted)``.

        ``map_in_force`` is the freshly adopted map when drift crossed
        the adopt threshold while armed, else the current map unchanged.
        """
        self.refreshes += 1
        probe = PlacementMap.learn(
            self.fleet,
            self.selector,
            window_ns=self.window_ns,
            hot_ratio=self.hot_ratio,
            warm_ratio=self.warm_ratio,
        )
        drift = self.current.drift(probe)
        self.last_drift = drift
        if drift <= self.settle_below:
            self.armed = True
        if self.armed and drift >= self.adopt_above:
            self.current = probe
            self.armed = False
            self.adoptions += 1
            return probe, True
        return self.current, False

    def __repr__(self) -> str:
        state = "armed" if self.armed else "disarmed"
        return (
            f"PlacementRefresher({self.selector!r}, {state}, "
            f"last drift {self.last_drift}, {self.adoptions} adoptions)"
        )
