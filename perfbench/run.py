"""Host-cost benchmark of the simulator and control plane.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2_sweep --seed 7 --seconds 30 --trace 0

Runs one workload (``fig2_sweep``, ``trace_replay`` or ``fleet_rollout``,
see ``workloads.py``) in repeated rounds for ``--seconds`` of host time.
Each round builds a fresh world from the seed (set-up), then times the
workload's items and checks their simulated outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count items (sweep points, trace requests, rollouts and
recoveries), and ``metrics`` holds

* with ``--trace 0`` (no profiler) the end-to-end metrics: ``wall_s``
  (host seconds of a round's items, each item at its fastest repeat),
  ``setup_s`` (imports plus the median round set-up), ``sim_ops_per_s``
  (simulated lock acquisitions per host second) and ``peak_rss_mb``;
* with ``--trace 1`` the per-layer metrics: self seconds per layer under
  ``cProfile`` (median over traced rounds), call counts and cumulative
  times at public entry points, and the simulated counts.

Simulated time is the paper's result and never a metric here: it is
checked as output.  Every round's simulated outputs hash to a
fingerprint; rounds of one run must agree, and at the default seed the
fingerprint must equal the recorded one, or every item of the run fails.
Simulated counts must also repeat exactly across rounds.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("fig2_sweep", "trace_replay", "fleet_rollout")
DEFAULT_SEED = 7
#: Fingerprints of the simulated outputs at DEFAULT_SEED.  A change that
#: alters one is a model change, not a speed-up.
RECORDED_FINGERPRINTS = {
    "fig2_sweep": "80816ff6d875fed2",
    "trace_replay": "49a8cbb4883ede3b",
    "fleet_rollout": "1ea4d021efd46581",
}
#: Traced runs: layer self times must add up to the profiled wall time.
CLOSURE_TOLERANCE = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Round:
    """One repeat: set-up time, timed items, simulated counts, outputs."""

    setup_s: float
    items: list
    counts: dict
    fingerprint: str
    profile: object = None
    profiled_s: float = 0.0


def best_wall_s(rounds):
    """Host seconds of a round's fixed work, each item at its fastest.

    A shared host's speed can drift by up to 2x over seconds to minutes; the
    fastest repeat of each short item is the least disturbed reading, so
    the sum is far steadier across runs than a median of round totals.
    """
    return sum(
        min(rnd.items[index].seconds for rnd in rounds)
        for index in range(len(rounds[0].items))
    )


@contextmanager
def _profiling(profile):
    if profile is not None:
        profile.enable()
    try:
        yield
    finally:
        if profile is not None:
            profile.disable()


def run_round(bench, workload, seed, traced):
    """Build a world, time its items, read its counts; tracing optional."""
    gc.collect()
    profile = cProfile.Profile() if traced else None
    timer = bench.Timer()
    start = time.perf_counter()
    with _profiling(profile):
        world = workload.build(seed)
    setup_s = time.perf_counter() - start
    try:
        before = bench.sim_counts(world)
        start = time.perf_counter()
        with _profiling(profile):
            workload.run(world, timer)
        run_s = time.perf_counter() - start
        after = bench.sim_counts(world)
        fingerprint = bench.fingerprint(world.outputs())
    finally:
        world.close()
    counts = {name: after[name] - before[name] for name in after}
    return Round(setup_s, timer.items, counts, fingerprint, profile, setup_s + run_s)


@contextmanager
def recording_verified_programs(programs):
    """Record which distinct programs ``Verifier.verify`` sees (traced
    rounds only: the wrapper is not on the untraced path)."""
    from repro.bpf.verifier import Verifier

    original = Verifier.verify

    def verify(self, program):
        programs.add(program.source or program.name)
        return original(self, program)

    Verifier.verify = verify
    try:
        yield
    finally:
        Verifier.verify = original


def run_rounds(bench, workload, seed, seconds, traced):
    """Untraced rounds until ``seconds`` elapse; a traced run alternates
    untraced and traced rounds (at least one and two of each)."""
    untraced, traced_rounds = [], []
    programs = set()
    start = time.perf_counter()
    while True:
        done = time.perf_counter() - start >= seconds
        if not traced:
            if untraced and done:
                break
            untraced.append(run_round(bench, workload, seed, False))
        elif untraced and len(traced_rounds) >= 2 and done:
            break
        elif len(untraced) <= len(traced_rounds):
            untraced.append(run_round(bench, workload, seed, False))
        else:
            with recording_verified_programs(programs):
                traced_rounds.append(run_round(bench, workload, seed, True))
    return untraced, traced_rounds, programs


def check_rounds(rounds, seed, workload_name, problems):
    """Counts and fingerprints repeat across rounds; default seed matches."""
    first = rounds[0]
    for index, rnd in enumerate(rounds[1:], start=1):
        drifted = sorted(k for k in first.counts if rnd.counts[k] != first.counts[k])
        if drifted:
            problems.append(f"round {index}: simulated counts drifted: {', '.join(drifted)}")
        if rnd.fingerprint != first.fingerprint:
            problems.append(f"round {index}: fingerprint {rnd.fingerprint} != {first.fingerprint}")
    recorded = RECORDED_FINGERPRINTS[workload_name]
    if seed == DEFAULT_SEED and first.fingerprint != recorded:
        problems.append(f"fingerprint {first.fingerprint} != recorded {recorded} at seed {seed}")


def profile_rows(layers, traced_rounds, problems):
    """Per traced round: layer self seconds and entry-point stats.  Layer
    self times plus ``other`` must add up to the profiled wall time, and
    entry-point call counts must repeat."""
    selfs, entries = [], []
    for rnd in traced_rounds:
        stats = pstats.Stats(rnd.profile).stats
        selfs.append(layers.self_seconds(stats))
        entries.append(layers.entry_point_stats(stats))
        total = sum(selfs[-1].values())
        if abs(total - rnd.profiled_s) > CLOSURE_TOLERANCE * rnd.profiled_s:
            problems.append(
                f"layer self times sum to {total:.3f}s, profiled wall {rnd.profiled_s:.3f}s"
            )
    for index, entry in enumerate(entries[1:], start=1):
        drifted = sorted(name for name in entry if entry[name][0] != entries[0][name][0])
        if drifted:
            problems.append(f"traced round {index}: call counts drifted: {', '.join(drifted)}")
    return selfs, entries


def per_layer_metrics(layers, untraced, traced_rounds, selfs, entries, programs):
    """The per-layer metrics: medians over traced rounds for times, exact
    values for counts."""

    def calls(name):
        return entries[0][name][0]

    def cumulative(name):
        return statistics.median(entry[name][1] for entry in entries)

    counts = untraced[0].counts
    untraced_wall = best_wall_s(untraced)
    traced_wall = best_wall_s(traced_rounds)
    vm_runs = calls("bpf.vm.run")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in list(layers.LAYERS) + [layers.OTHER]:
        put(f"{layer}.self_s", statistics.median(row[layer] for row in selfs), "s")
    put("sim.events", counts["sim.events"], "count")
    put("sim.host_ns_per_event", untraced_wall * 1e9 / max(1, counts["sim.events"]), "ns")
    put("sim.sched.tasks_finished", counts["sim.sched.tasks_finished"], "count")
    for name in ("atomics", "transfers", "remote_transfers", "local_spins"):
        put(f"sim.cache.{name}", counts[f"sim.cache.{name}"], "count")
    put("locks.acquisitions", counts["locks.acquisitions"], "count")
    put(
        "locks.contended_ratio",
        counts["locks.contended"] / max(1, counts["locks.acquisitions"]),
        "ratio",
    )
    put("locks.shuffle_moves", counts["locks.shuffle_moves"], "count")
    put("livepatch.enables", calls("livepatch.patch"), "count")
    put("bpf.vm.runs", vm_runs, "count")
    put("bpf.vm.us_per_run", cumulative("bpf.vm.run") * 1e6 / vm_runs if vm_runs else 0.0, "us")
    put(
        "bpf.verifier.runs_per_program",
        calls("bpf.verifier.verify") / len(programs) if programs else 0.0,
        "ratio",
    )
    put("controlplane.submits", calls("controlplane.submit"), "count")
    put("journal.appends", calls("journal.append"), "count")
    put("journal.append_s", cumulative("journal.append"), "s")
    put("journal.replay_s", cumulative("journal.entries"), "s")
    put("replication.commits", counts["replication.commits"], "count")
    put("netsim.delivered", counts["netsim.delivered"], "count")
    put("netsim.dropped", counts["netsim.dropped"], "count")
    put("fleet.member_sim_ms", counts["fleet.member_sim_ns"] / 1e6, "ms")
    put("traffic.generate_s", cumulative("traffic.generate"), "s")
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import layers
    from perfbench import workloads as bench

    import_s = time.perf_counter() - _PROCESS_START
    workload = bench.workloads(ROOT)[args.workload]
    untraced, traced_rounds, programs = run_rounds(
        bench, workload, args.seed, args.seconds, bool(args.trace)
    )
    rounds = untraced + traced_rounds
    problems = []
    check_rounds(rounds, args.seed, args.workload, problems)
    if args.trace:
        selfs, entries = profile_rows(layers, traced_rounds, problems)

    attempted = sum(item.attempted for rnd in rounds for item in rnd.items)
    failed = sum(item.failed for rnd in rounds for item in rnd.items)
    if problems:
        failed = attempted  # a run that fails a check fails every item
    wall_s = best_wall_s(untraced)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (import_s + statistics.median(rnd.setup_s for rnd in untraced), "s"),
        "sim_ops_per_s": (untraced[0].counts["locks.acquisitions"] / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced "
          f"+ {len(traced_rounds)} traced rounds, fingerprint {rounds[0].fingerprint}")
    print("item spans (host seconds over untraced rounds; wall_s sums the minima):")
    for index, item in enumerate(untraced[0].items):
        times = [rnd.items[index].seconds for rnd in untraced]
        print(f"  {item.name:<24} median {statistics.median(times):.4f} "
              f"min {min(times):.4f} max {max(times):.4f}")
    print("end to end:")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in end_to_end.items()
        if name != "error_rate"  # carried by "attempted" and "failed"
    }
    if args.trace:
        print("entry points (calls, cumulative traced seconds):")
        for name, (calls, cumulative) in entries[0].items():
            print(f"  {name:<24} {calls:>8} {cumulative:.4f}")
        metrics = per_layer_metrics(layers, untraced, traced_rounds, selfs, entries, programs)
        print("per layer:")
        for name, metric in metrics.items():
            print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
