"""The discrete-event simulation engine.

The engine advances a single global clock (integer nanoseconds) through a
priority queue of events.  Simulated tasks are generators that yield
effect requests (:mod:`repro.sim.ops`); the engine prices each request
using the cache model and topology, schedules its completion, and resumes
the generator with the result.  A completion that would be the very next
event anyway resumes the task in place, without a trip through the heap.

Determinism: the event heap breaks time ties by an insertion sequence
number, the only randomness lives in the engine's seeded ``rng``, and the
whole simulation runs on one OS thread — identical (seed, config) inputs
therefore produce identical traces, which the test suite relies on.

Scheduling model (see DESIGN.md §3):

* a task is pinned to one CPU; at most one task occupies a CPU;
* computation, memory traffic, and local spinning all occupy the CPU;
* parking releases the CPU to the next runnable task;
* CPUs can be *frozen* for a period (vCPU preemption by a hypervisor);
* an optional preemption quantum forces the running task off the CPU
  when equal-or-higher-priority work is waiting, and wake-ups of
  higher-priority tasks preempt lower-priority occupants.
"""

from __future__ import annotations

import heapq
import random as _random
from typing import Any, Callable, Dict, List, Optional

from . import ops
from .cache import CacheModel, Cell, CellWaiter
from .errors import DeadlockError, SimLimitError, TaskError
from .scheduler import CPU
from .stats import StatsRegistry
from .task import Task, TaskBody, TaskState
from .topology import Topology

__all__ = ["Engine"]

# Cost (ns) of a park fast path that consumes a pending token (no syscall).
_PARK_FASTPATH_NS = 30
# Cost (ns) of a voluntary yield when the run queue is empty.
_YIELD_NOOP_NS = 80
# ``run()`` without ``until``: no completion is past the horizon.
_NO_HORIZON = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop
_RUNNING = TaskState.RUNNING
_READY = TaskState.READY
_SPINNING = TaskState.SPINNING
_PARKED = TaskState.PARKED
_DONE = TaskState.DONE


class Engine:
    """Event loop, scheduler, and effect interpreter for one machine."""

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        max_events: int = 200_000_000,
        preemption_quantum: Optional[int] = None,
        preemptive_priorities: bool = False,
    ) -> None:
        self.topology = topology
        self.stats = StatsRegistry()
        self.cache = CacheModel(topology, self.stats)
        self.rng = _random.Random(seed)
        self.now = 0
        self.max_events = max_events
        self.preemption_quantum = preemption_quantum
        self.preemptive_priorities = preemptive_priorities

        self.cpus: List[CPU] = [CPU(i) for i in range(topology.nr_cpus)]
        self.tasks: List[Task] = []
        self._heap: List = []
        self._seq = 0
        self._events_processed = 0
        self._next_tid = 1
        self._stopped = False
        #: ``until`` of the run in progress; completions past it are pushed.
        self._horizon = _NO_HORIZON
        self._speed = tuple(topology.speed_of(cpu) for cpu in range(topology.nr_cpus))
        # Hot counters, bound on first use so that a run which never
        # switches, spins or finishes adds no zero-valued snapshot keys.
        self._c_switches = None
        self._c_spins = None
        self._c_finished = None

        self._handlers: Dict[type, Callable] = {
            ops.Delay: self._h_delay,
            ops.Load: self._h_load,
            ops.Store: self._h_store,
            ops.CAS: self._h_cas,
            ops.Xchg: self._h_xchg,
            ops.FetchAdd: self._h_fetch_add,
            ops.WaitValue: self._h_wait_value,
            ops.Park: self._h_park,
            ops.ParkTimeout: self._h_park_timeout,
            ops.Unpark: self._h_unpark,
            ops.YieldCPU: self._h_yield,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cell(self, value: Any = 0, name: str = "") -> Cell:
        """Allocate one line of simulated shared memory."""
        return Cell(value, name)

    def spawn(
        self,
        body: TaskBody,
        cpu: int,
        name: str = "",
        priority: int = 0,
        at: Optional[int] = None,
    ) -> Task:
        """Create a task pinned to ``cpu`` and schedule its first run.

        ``body`` is called with the new :class:`Task` and must return a
        generator.  The task starts at time ``at`` (default: now).
        """
        if not 0 <= cpu < self.topology.nr_cpus:
            raise TaskError(f"cpu {cpu} out of range for {self.topology}")
        task = Task(self, self._next_tid, body, cpu, name=name, priority=priority)
        self._next_tid += 1
        task.spawn_time = self.now if at is None else at
        self.tasks.append(task)
        self._at(task.spawn_time, self._start_task, task)
        return task

    def external_store(self, cell, value: Any, cpu: int = 0) -> None:
        """Store to a cell from outside any task (patcher, hypervisor).

        Performs full store semantics at the current time — ownership
        transfer, waiter rechecks — attributed to ``cpu``.  Used by
        control-plane actors that are not simulated tasks.
        """
        _finish, _none, rechecks = self.cache.store(self.now, cpu, cell, value)
        self._schedule_rechecks(rechecks)

    def call_at(self, time_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at an absolute simulated time (injection hook)."""
        self._at(max(time_ns, self.now), self._call, fn)

    def call_after(self, delay_ns: int, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay_ns, fn)

    def freeze_cpu(self, cpu_id: int, duration_ns: int) -> None:
        """Model a hypervisor descheduling this CPU for ``duration_ns``.

        Nothing on the CPU makes progress until the thaw: in-flight
        completions and wake-ups are deferred.  Used by the vCPU
        double-scheduling experiments.
        """
        cpu = self.cpus[cpu_id]
        thaw = self.now + duration_ns
        if thaw > cpu.frozen_until:
            cpu.frozen_until = thaw
        self.stats.counter("sched.cpu_freezes").inc()
        # If the occupant is mid-spin, its rechecks will defer themselves;
        # nothing else to do: completions re-check frozen_until.

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the queue drains while tasks are still blocked and no
        ``until`` bound was given (a bounded run is allowed to stop with
        tasks mid-flight — that is how throughput runs end).
        """
        heap = self._heap
        self._stopped = False
        horizon = self._horizon = _NO_HORIZON if until is None else until
        while heap:
            if self._events_processed >= self.max_events:
                raise SimLimitError(
                    f"exceeded max_events={self.max_events} at t={self.now}ns"
                )
            time_ns, _seq, fn, arg = heap[0]
            if time_ns > horizon:
                self.now = until
                return self.now
            _heappop(heap)
            self._events_processed += 1
            self.now = time_ns
            fn(arg)
            if self._stopped:
                return self.now
        if until is None:
            blocked = [t for t in self.tasks if not t.done and t.state is not TaskState.NEW]
            if blocked:
                names = ", ".join(f"{t.name}[{t.state.value}]" for t in blocked[:12])
                raise DeadlockError(
                    f"event queue drained with {len(blocked)} blocked task(s): {names}",
                    blocked,
                )
        elif self.now < until:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Stop the run loop after the current event (used by injectors)."""
        self._stopped = True

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _at(self, time_ns: int, fn: Callable, arg: Any) -> None:
        if time_ns < self.now:
            time_ns = self.now  # never schedule into the past
        self._seq += 1
        _heappush(self._heap, (time_ns, self._seq, fn, arg))

    @staticmethod
    def _call(fn: Callable[[], None]) -> None:
        fn()

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def _start_task(self, task: Task) -> None:
        task.start()
        cpu = self.cpus[task.cpu_id]
        if cpu.current is None and self.now >= cpu.frozen_until:
            cpu.current = task
            cpu.dispatch_seq += 1
            task.state = _RUNNING
            self._arm_quantum(cpu)
            self._on_complete((task, None))
        else:
            task.state = _READY
            task.has_pending_value = False
            cpu.enqueue(task)
            self._maybe_preempt_for(cpu, task)
            self._arm_quantum(cpu)
            self._dispatch(cpu)

    def _finish_task(self, task: Task, result: Any) -> None:
        task.state = _DONE
        task.result = result
        task.finish_time = self.now
        counter = self._c_finished
        if counter is None:
            counter = self._c_finished = self.stats.counter("sched.tasks_finished")
        counter.value += 1
        self._release_cpu(task)

    def _release_cpu(self, task: Task) -> None:
        cpu = self.cpus[task.cpu_id]
        if cpu.current is task:
            cpu.current = None
            cpu.idle_since = self.now
            self._dispatch(cpu)

    # ------------------------------------------------------------------
    # Completion & scheduling
    # ------------------------------------------------------------------
    def _on_complete(self, payload) -> None:
        """Deliver a request's result to its task and run the task on.

        This is the event loop's inner loop: it resumes the generator,
        prices the next request and, when that request is a pure cost
        (the handler returns ``(finish, value)``), continues the task
        inline instead of pushing the completion — but only when the
        push would have been the very next pop anyway: ``finish`` is
        strictly earlier than the heap head, within the run's ``until``
        and ``max_events``, and ``stop()`` was not called.  The inlined
        completion still counts as an event, so the event order, ``now``
        and ``events_processed`` are exactly those of pushing it
        (DESIGN.md §6).
        """
        task, value = payload
        cpus = self.cpus
        handlers = self._handlers
        heap = self._heap
        while True:
            if task.state is _DONE:
                return
            cpu = cpus[task.cpu_id]
            if cpu.frozen_until > self.now:
                # vCPU descheduled: progress resumes at thaw.
                self._at(cpu.frozen_until, self._on_complete, (task, value))
                return
            if cpu.current is not task:
                # We were descheduled while the request was in flight; park
                # the result and wait for a dispatch.
                task.pending_value = value
                task.has_pending_value = True
                if task.state is not _READY:
                    task.state = _READY
                    cpu.enqueue(task)
                    self._maybe_preempt_for(cpu, task)
                    self._arm_quantum(cpu)
                self._dispatch(cpu)
                return
            if task.preempt_pending and cpu.runqueue:
                task.preempt_pending = False
                task.pending_value = value
                task.has_pending_value = True
                task.state = _READY
                cpu.current = None
                cpu.enqueue(task)
                self.stats.counter("sched.preemptions").inc()
                self._dispatch(cpu)
                return
            task.state = _RUNNING
            try:
                request = task.gen.send(value)
            except StopIteration as stop:
                self._finish_task(task, stop.value)
                return
            except Exception as exc:  # body raised: record and re-raise
                task.error = exc
                task.state = _DONE
                task.finish_time = self.now
                self._release_cpu(task)
                raise
            try:
                handler = handlers[type(request)]
            except KeyError:
                raise TaskError(
                    f"{task.name} yielded {request!r}, which is not a sim request"
                ) from None
            step = handler(task, request)
            if step is None:
                return
            finish, value = step
            if (
                (heap and finish >= heap[0][0])
                or finish > self._horizon
                or self._events_processed >= self.max_events
                or self._stopped
            ):
                self._seq += 1
                _heappush(heap, (finish, self._seq, self._on_complete, (task, value)))
                return
            self._events_processed += 1
            self.now = finish

    def _dispatch(self, cpu: CPU) -> None:
        if cpu.current is not None:
            return
        if cpu.frozen_until > self.now:
            self._at(cpu.frozen_until, self._dispatch_cb, cpu)
            return
        nxt = cpu.pick_next()
        if nxt is None or nxt.state is _DONE:
            return
        cpu.current = nxt
        cpu.dispatch_seq += 1
        nxt.preempt_pending = False
        counter = self._c_switches
        if counter is None:
            counter = self._c_switches = self.stats.counter("sched.context_switches")
        counter.value += 1
        self._arm_quantum(cpu)
        resume = self.now + self.topology.latency.context_switch
        if nxt.has_pending_value:
            nxt.state = _RUNNING
            value = nxt.pending_value
            nxt.pending_value = None
            nxt.has_pending_value = False
            self._at(resume, self._on_complete, (nxt, value))
        elif nxt._spin_waiter is not None:
            # A spinner that was descheduled mid-WaitValue and whose cell
            # has not fired yet: it resumes spinning, no generator step.
            nxt.state = _SPINNING
        else:
            # Fresh task: first generator step receives None.
            nxt.state = _RUNNING
            self._at(resume, self._on_complete, (nxt, None))

    def _dispatch_cb(self, cpu: CPU) -> None:
        self._dispatch(cpu)

    def _arm_quantum(self, cpu: CPU) -> None:
        if self.preemption_quantum is None or not cpu.runqueue:
            return
        if cpu.current is None or cpu.quantum_armed_seq == cpu.dispatch_seq:
            return
        cpu.quantum_armed_seq = cpu.dispatch_seq
        self._at(
            self.now + self.preemption_quantum,
            self._quantum_fire,
            (cpu, cpu.current, cpu.dispatch_seq),
        )

    def _quantum_fire(self, payload) -> None:
        cpu, task, seq = payload
        if cpu.current is not task or cpu.dispatch_seq != seq or not cpu.runqueue:
            return
        if task.state is _SPINNING:
            # A spinning waiter can be descheduled immediately: it has no
            # in-flight completion, only (possibly) armed cell waiters.
            self._deschedule_spinner(cpu, task)
        else:
            task.preempt_pending = True

    def _maybe_preempt_for(self, cpu: CPU, newcomer: Task) -> None:
        """Wake-up preemption: higher-priority arrivals evict the occupant."""
        if not self.preemptive_priorities:
            return
        current = cpu.current
        if current is None or newcomer.priority <= current.priority:
            return
        if current.state is _SPINNING:
            self._deschedule_spinner(cpu, current)
        else:
            current.preempt_pending = True

    def _deschedule_spinner(self, cpu: CPU, task: Task) -> None:
        """Take the CPU from a task blocked in WaitValue."""
        cpu.current = None
        task.state = _READY
        task.has_pending_value = False
        # The cell waiter stays armed; if it fires while we are off-CPU the
        # recheck path sees state READY and stores a pending value instead.
        task.tags["_descheduled_spin"] = 1
        cpu.enqueue(task)
        self.stats.counter("sched.spinner_preemptions").inc()
        self._dispatch(cpu)

    # ------------------------------------------------------------------
    # Request handlers
    #
    # A handler whose request only costs time returns ``(finish, value)``
    # and the caller completes the task at ``finish``; one that blocks,
    # deschedules or schedules other events handles the completion
    # itself and returns None.
    # ------------------------------------------------------------------
    def _h_delay(self, task: Task, req: ops.Delay):
        cost = int(req.ns * self._speed[task.cpu_id])
        return self.now + (cost if cost > 0 else 0), None

    def _h_load(self, task: Task, req: ops.Load):
        return self.cache.load(self.now, task.cpu_id, req.cell)

    def _h_store(self, task: Task, req: ops.Store):
        finish, _none, rechecks = self.cache.store(
            self.now, task.cpu_id, req.cell, req.value
        )
        if rechecks:
            self._schedule_rechecks(rechecks)
        return finish, None

    def _h_cas(self, task: Task, req: ops.CAS):
        finish, result, rechecks = self.cache.cas(
            self.now, task.cpu_id, req.cell, req.expected, req.new
        )
        if rechecks:
            self._schedule_rechecks(rechecks)
        return finish, result

    def _h_xchg(self, task: Task, req: ops.Xchg):
        finish, old, rechecks = self.cache.xchg(self.now, task.cpu_id, req.cell, req.value)
        if rechecks:
            self._schedule_rechecks(rechecks)
        return finish, old

    def _h_fetch_add(self, task: Task, req: ops.FetchAdd):
        finish, old, rechecks = self.cache.fetch_add(
            self.now, task.cpu_id, req.cell, req.delta
        )
        if rechecks:
            self._schedule_rechecks(rechecks)
        return finish, old

    def _schedule_rechecks(self, rechecks) -> None:
        for waiter, at in rechecks:
            self._at(at, self._waiter_recheck, waiter)

    def _h_wait_value(self, task: Task, req: ops.WaitValue) -> None:
        finish, value = self.cache.load(self.now, task.cpu_id, req.cell)
        self._at(finish, self._wait_first_check, (task, req))

    def _wait_first_check(self, payload) -> None:
        task, req = payload
        if task.state is _DONE:
            return
        value = req.cell.value
        if req.pred(value):
            self._at(self.now, self._on_complete, (task, value))
            return
        waiter = CellWaiter(task, req.pred)
        waiter_cell = req.cell
        task.state = _SPINNING
        task.tags.pop("_descheduled_spin", None)
        self.cache.add_waiter(waiter_cell, waiter)
        task._spin_waiter = (waiter_cell, waiter)
        counter = self._c_spins
        if counter is None:
            counter = self._c_spins = self.stats.counter("cache.local_spins")
        counter.value += 1

    def _waiter_recheck(self, waiter: CellWaiter) -> None:
        if waiter.cancelled:
            return
        task = waiter.task
        if task.state is _DONE or task._spin_waiter is None:
            return
        cell, _w = task._spin_waiter
        # The recheck is a read: the spinner holds a shared copy again,
        # so the next write pays to invalidate it.
        if cell.owner != task.cpu_id:
            cell.sharers.add(task.cpu_id)
        value = cell.value
        if not waiter.pred(value):
            waiter.armed = True
            return
        self.cache.remove_waiter(cell, waiter)
        task._spin_waiter = None
        cpu = self.cpus[task.cpu_id]
        if task.state is _SPINNING and cpu.current is task:
            task.state = _RUNNING
            self._at(self.now, self._on_complete, (task, value))
        else:
            # We were descheduled mid-spin (quantum or priority preemption):
            # deliver the value when we next get the CPU.
            task.pending_value = value
            task.has_pending_value = True
            if task.state is not _READY:
                task.state = _READY
                cpu.enqueue(task)
            task.tags.pop("_descheduled_spin", None)
            self._dispatch(cpu)

    # ------------------------------------------------------------------
    # Park / unpark (futex semantics)
    # ------------------------------------------------------------------
    def _h_park(self, task: Task, req: ops.Park):
        return self._park_common(task, None)

    def _h_park_timeout(self, task: Task, req: ops.ParkTimeout):
        return self._park_common(task, req.ns)

    def _park_common(self, task: Task, timeout_ns: Optional[int]):
        if task.park_token:
            task.park_token = False
            return self.now + _PARK_FASTPATH_NS, True
        lat = self.topology.latency
        task.state = _PARKED
        task.wake_epoch += 1
        epoch = task.wake_epoch
        cpu = self.cpus[task.cpu_id]
        if cpu.current is task:
            cpu.current = None
            # Park cost is paid by the CPU before the next dispatch.
            self._at(self.now + lat.park_cost, self._dispatch_cb, cpu)
        self.stats.counter("sched.parks").inc()
        if timeout_ns is not None:
            self._at(self.now + timeout_ns, self._park_timeout_fire, (task, epoch))

    def _park_timeout_fire(self, payload) -> None:
        task, epoch = payload
        if task.state is _PARKED and task.wake_epoch == epoch:
            self._wake(task, woken=False)

    def _h_unpark(self, task: Task, req: ops.Unpark) -> None:
        target = req.task
        lat = self.topology.latency
        self._at(self.now + lat.wake_cost, self._on_complete, (task, None))
        self._at(self.now, self._do_unpark, target)

    def unpark_external(self, target: Task) -> None:
        """Unpark from outside any task (injectors, hypervisor models)."""
        self._do_unpark(target)

    def _do_unpark(self, target: Task) -> None:
        if target.state is _DONE:
            return
        if target.state is _PARKED:
            lat = self.topology.latency
            target.wake_epoch += 1
            self._at(self.now + lat.wake_latency, self._wake_cb, target)
        else:
            target.park_token = True

    def _wake_cb(self, target: Task) -> None:
        if target.state is _PARKED:
            self._wake(target, woken=True)

    def _wake(self, task: Task, woken: bool) -> None:
        self.stats.counter("sched.wakeups").inc()
        cpu = self.cpus[task.cpu_id]
        task.pending_value = woken
        task.has_pending_value = True
        task.state = _READY
        cpu.enqueue(task)
        self._maybe_preempt_for(cpu, task)
        self._arm_quantum(cpu)
        self._dispatch(cpu)

    # ------------------------------------------------------------------
    def _h_yield(self, task: Task, req: ops.YieldCPU):
        cpu = self.cpus[task.cpu_id]
        if not cpu.runqueue:
            return self.now + _YIELD_NOOP_NS, None
        task.state = _READY
        task.pending_value = None
        task.has_pending_value = True
        cpu.current = None
        cpu.enqueue(task)
        self.stats.counter("sched.yields").inc()
        self._dispatch(cpu)
