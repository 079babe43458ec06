"""Golden engine traces: the event loop's observable results, pinned.

Each scenario drives the engine through seeded, randomized task bodies
that use every request type (Delay, Load, Store, CAS, Xchg, FetchAdd,
WaitValue, Park, ParkTimeout, Unpark, YieldCPU) together with CPU
freezes, a preemption quantum, priority preemption, injected callbacks,
``stop()``, sliced ``run(until=...)`` calls and a ``max_events``
overflow.  The digest covers the final clock, the event count, every
task's ``(finish_time, result, state)`` and the full
``stats.snapshot()`` (keys included), so any change to the order in
which events run — or to what they cost — changes it.

The recorded values come from the straightforward push-every-completion
engine; a faster dispatch path must reproduce them exactly.
"""

import hashlib
import random
import zlib

import pytest

from repro.sim import (
    Barrier,
    Completion,
    Engine,
    SimLimitError,
    Topology,
    WaitQueue,
    ops,
)

#: scenario -> (final now, events processed, digest).
GOLDEN = {
    "drain": (79991, 1709, "ff7f00f6a8680cc6"),
    "mixed": (400000, 2096, "4beffda603caa444"),
    "overflow": (7912387, 5000, "64615ff6a3138970"),
    "preempt": (400000, 2923, "dad9ae6f1b8dbae9"),
    "sliced": (250000, 2314, "a7238fa510153797"),
}


def _topology():
    """Three sockets with asymmetric NUMA distances and mixed core speeds."""
    return Topology(
        sockets=3,
        cores_per_socket=2,
        numa_distance=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        speed=[1.0, 1.0, 2.0, 1.0, 1.5, 1.0],
    )


def _fold(acc, value):
    return (acc * 1_000_003 + zlib.crc32(repr(value).encode())) % (1 << 61)


def _digest(engine, extra=()):
    tasks = [
        (t.name, t.spawn_time, t.finish_time, repr(t.result), t.state.value)
        for t in engine.tasks
    ]
    snapshot = sorted(engine.stats.snapshot().items())
    blob = repr((engine.now, engine.events_processed, tasks, snapshot, list(extra)))
    return engine.now, engine.events_processed, hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_mixed(engine, *, workers=10, steps=60, stopper=False):
    """Randomized workers over three shared lines, a ticker and a waker."""
    cells = [engine.cell(0, name=f"c{i}") for i in range(3)]
    ticker = engine.cell(0, name="ticker")
    tasks = []

    def worker(task, index):
        rng = random.Random(1000 + index)
        seen = [0, 0, 0]
        acc = 0
        for _ in range(steps):
            op = rng.randrange(14)
            k = rng.randrange(3)
            cell = cells[k]
            if op == 0:
                value = yield ops.Delay(rng.choice((0, 0, 5, 120, 400)))
            elif op == 1:
                value = yield ops.Delay(engine.rng.randint(0, 300))
            elif op == 2:
                value = seen[k] = yield ops.Load(cell)
            elif op == 3:
                value = yield ops.Store(cell, task.tid * 100 + rng.randrange(7))
            elif op == 4:
                value = yield ops.CAS(cell, seen[k], task.tid)
                seen[k] = value[1]
            elif op == 5:
                value = seen[k] = yield ops.Xchg(cell, task.tid)
            elif op == 6:
                value = yield ops.FetchAdd(cell, rng.randrange(1, 4))
            elif op == 7:
                now_tick = yield ops.Load(ticker)
                value = yield ops.WaitValue(ticker, lambda v, t=now_tick + 1: v >= t)
            elif op == 8:
                value = yield ops.ParkTimeout(rng.randint(100, 6000))
            elif op == 9:
                value = yield ops.Park()
            elif op == 10:
                value = yield ops.Unpark(tasks[rng.randrange(len(tasks))])
            elif op == 11:
                value = yield ops.YieldCPU()
            elif op == 12:
                # Same-time chains: zero-cost steps tie with the heap head.
                value = yield ops.Delay(0)
                value = yield ops.FetchAdd(cell, 0)
            else:
                value = yield ops.Load(cell)
                value = yield ops.Delay(rng.randint(1, 50))
            acc = _fold(acc, value)
        return acc

    def tick(task):
        n = 0
        while n < 400:
            yield ops.Delay(300)
            yield ops.FetchAdd(ticker, 1)
            n += 1
            if stopper and n % 37 == 0:
                task.engine.stop()
        return n

    def waker(task):
        rng = random.Random(77)
        for i in range(150):
            yield ops.Delay(rng.randint(200, 900))
            yield ops.Unpark(tasks[rng.randrange(len(tasks))])
            if i % 40 == 0:
                engine.spawn(_helper, cpu=rng.randrange(6), name=f"helper-{i}")
        return i

    def _helper(task):
        yield ops.Delay(50)
        old = yield ops.FetchAdd(cells[0], 1)
        return old

    for i in range(workers):
        tasks.append(
            engine.spawn(
                lambda t, i=i: worker(t, i),
                cpu=i % 6,
                name=f"w{i}",
                priority=i % 3,
                at=(i * 37) % 200,
            )
        )
    engine.spawn(tick, cpu=5, name="ticker", priority=3)
    engine.spawn(waker, cpu=4, name="waker", priority=3)
    return cells, tasks


def scenario_mixed():
    engine = Engine(_topology(), seed=11)
    _build_mixed(engine)
    engine.run(until=400_000)
    return _digest(engine)


def scenario_preempt():
    engine = Engine(
        _topology(), seed=12, preemption_quantum=1_500, preemptive_priorities=True
    )
    cells, tasks = _build_mixed(engine, workers=14)
    engine.call_at(3_000, lambda: engine.freeze_cpu(1, 5_000))
    engine.call_at(8_000, lambda: engine.freeze_cpu(3, 20_000))
    engine.call_at(9_000, lambda: engine.freeze_cpu(5, 2_500))
    engine.call_at(15_000, lambda: engine.external_store(cells[1], 7, cpu=2))
    engine.call_at(21_000, lambda: engine.unpark_external(tasks[3]))
    engine.call_after(40_000, lambda: engine.freeze_cpu(0, 4_000))
    engine.run(until=400_000)
    return _digest(engine)


def scenario_sliced():
    engine = Engine(_topology(), seed=13, preemption_quantum=4_000)
    _build_mixed(engine, stopper=True)
    for t in (2_000, 2_001, 17_500, 60_000):
        engine.call_at(t, engine.stop)
    returns = []
    target = 0
    while engine.now < 250_000:
        target = min(target + 2_500, 250_000) if engine.now >= target else target
        returns.append(engine.run(until=target))
    return _digest(engine, returns)


def scenario_overflow():
    engine = Engine(_topology(), seed=14, max_events=5_000, preemption_quantum=3_000)
    _build_mixed(engine)
    with pytest.raises(SimLimitError) as info:
        engine.run()
    return _digest(engine, [str(info.value)])


def scenario_drain():
    """Classic lock idioms plus the sync primitives, run until the queue drains."""
    engine = Engine(_topology(), seed=15)
    ticket_next = engine.cell(0, name="next")
    ticket_serving = engine.cell(0, name="serving")
    tas = engine.cell(0, name="tas")
    tail = engine.cell(None, name="tail")
    counter = engine.cell(0, name="counter")
    barrier = Barrier(9)
    done = Completion()
    queue = WaitQueue("q")

    def body(task, index):
        rng = random.Random(500 + index)
        yield from barrier.wait(task)
        for _ in range(12):
            # Ticket lock: FetchAdd + local spin.
            mine = yield ops.FetchAdd(ticket_next, 1)
            yield ops.WaitValue(ticket_serving, lambda v, m=mine: v == m)
            value = yield ops.Load(counter)
            yield ops.Store(counter, value + 1)
            yield ops.Delay(rng.randint(0, 200))
            yield ops.Store(ticket_serving, mine + 1)
            # Test-and-set with yield backoff.
            while True:
                ok, _old = yield ops.CAS(tas, 0, task.tid)
                if ok:
                    break
                yield ops.YieldCPU()
                yield ops.Delay(rng.randint(0, 60))
            prev = yield ops.Xchg(tail, task.tid)
            yield ops.Delay(rng.randint(0, 100))
            yield ops.Store(tas, 0)
            if prev is not None and rng.random() < 0.3:
                woken = yield from queue.sleep(task, timeout_ns=rng.randint(500, 3_000))
                task.stats["woken"] = task.stats.get("woken", 0) + int(bool(woken))
            yield from queue.wake_one(task)
        if index == 0:
            yield from done.complete_all(task)
        else:
            yield from done.wait(task)
        return task.stats.get("woken", 0)

    for i in range(9):
        engine.spawn(lambda t, i=i: body(t, i), cpu=i % 6, name=f"d{i}", priority=i % 2)
    engine.run()
    return _digest(engine, [counter.value, ticket_serving.value])


SCENARIOS = {
    "mixed": scenario_mixed,
    "preempt": scenario_preempt,
    "sliced": scenario_sliced,
    "overflow": scenario_overflow,
    "drain": scenario_drain,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_trace_matches_golden(name):
    assert SCENARIOS[name]() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_trace_is_reproducible(name):
    assert SCENARIOS[name]() == SCENARIOS[name]()


if __name__ == "__main__":  # print the values to record in GOLDEN
    for scenario_name, scenario in sorted(SCENARIOS.items()):
        print(f"    {scenario_name!r}: {scenario()!r},")
