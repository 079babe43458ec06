"""Trace generation: schedule × arrivals × tenants → a replayable trace.

A :class:`Trace` is the unit of reproducibility for the load layer: an
immutable, ordered list of :class:`TraceEvent`\\ s plus the metadata
that produced it.  :meth:`Trace.to_jsonl` is canonical (sorted keys,
fixed separators), so "same seed ⇒ byte-identical trace" is a testable
equality on strings, not an approximate comparison of floats.

:class:`TraceGenerator` drives one seeded ``Random`` through the phases
in order — arrival draws, then tenant/op draws per event — so the whole
trace is a pure function of (schedule, arrivals, tenants, seed).
"""

from __future__ import annotations

import json
from random import Random
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .arrivals import ArrivalProcess
from .phases import PhaseSchedule
from .tenants import TenantSet

__all__ = ["TraceEvent", "Trace", "TraceGenerator"]


class TraceEvent(NamedTuple):
    """One arriving request."""

    seq: int
    time_ns: int
    phase: str
    tenant: str
    op: str


class Trace:
    """An immutable arrival trace plus its provenance."""

    def __init__(
        self,
        events: Sequence[TraceEvent],
        seed: int,
        total_ns: int,
        description: str = "",
    ) -> None:
        self.events: Tuple[TraceEvent, ...] = tuple(events)
        self.seed = seed
        self.total_ns = total_ns
        self.description = description

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- queries -------------------------------------------------------
    def phase_names(self) -> List[str]:
        """Phase names in order of first appearance."""
        seen: List[str] = []
        for ev in self.events:
            if ev.phase not in seen:
                seen.append(ev.phase)
        return seen

    def counts_by_phase(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.phase] = out.get(ev.phase, 0) + 1
        return out

    # -- canonical serialization --------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSONL: header line, then one line per event.

        Key order, separators, and integer times are all fixed, so two
        traces are byte-identical iff they are the same trace.
        """
        header = json.dumps(
            {
                "description": self.description,
                "events": len(self.events),
                "seed": self.seed,
                "total_ns": self.total_ns,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        lines = [header]
        for ev in self.events:
            lines.append(
                json.dumps(
                    {
                        "op": ev.op,
                        "phase": ev.phase,
                        "seq": ev.seq,
                        "tenant": ev.tenant,
                        "time_ns": ev.time_ns,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        by_phase = self.counts_by_phase()
        phases = ", ".join(f"{name}={n}" for name, n in by_phase.items())
        return (
            f"trace(seed={self.seed}, {len(self.events)} events over "
            f"{self.total_ns / 1e6:.2f}ms: {phases})"
        )


class TraceGenerator:
    """Deterministic trace factory: one RNG, phases in order."""

    def __init__(
        self,
        schedule: PhaseSchedule,
        arrivals: ArrivalProcess,
        tenants: TenantSet,
        seed: int = 0,
    ) -> None:
        self.schedule = schedule
        self.arrivals = arrivals
        self.tenants = tenants
        self.seed = seed

    def generate(self) -> Trace:
        rng = Random(self.seed)
        events: List[TraceEvent] = []
        seq = 0
        for start, phase in self.schedule.boundaries():
            end = start + phase.duration_ns
            for t in self.arrivals.times(rng, start, end, phase.rate_scale):
                tenant, op = self.tenants.assign(rng)
                events.append(TraceEvent(seq, t, phase.name, tenant, op))
                seq += 1
        description = f"{self.arrivals.describe()} | {self.schedule.describe()}"
        return Trace(events, self.seed, self.schedule.total_ns, description)
