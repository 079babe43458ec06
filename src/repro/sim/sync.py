"""Kernel-style synchronization building blocks on top of park/unpark.

These are the substrate equivalents of Linux's wait queues and
completion variables.  Blocking lock algorithms (:mod:`repro.locks.rwsem`,
:mod:`repro.locks.mutex`) build their sleeping paths on
:class:`WaitQueue`; workloads use :class:`Barrier` to line tasks up at a
starting gate so throughput windows are clean.

Everything here is generator-based: methods that can block are
generators and must be driven with ``yield from``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from .ops import Park, ParkTimeout, Unpark
from .task import Task

__all__ = ["WaitQueue", "Barrier", "Completion"]


class WaitQueue:
    """A FIFO queue of sleeping tasks (cf. ``wait_queue_head_t``).

    The caller is responsible for its own "condition re-check after
    wake-up" loop, exactly like a kernel wait queue.  The queue itself is
    simulator-internal state (a Python deque): real kernels protect the
    queue with an internal spinlock whose cost is tiny compared to
    parking, so we fold it into the park/wake costs already charged by
    the engine.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._sleepers: Deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._sleepers)

    def sleep(self, task: Task, timeout_ns: Optional[int] = None) -> Iterator:
        """Block the task until :meth:`wake_one`/`wake_all` picks it.

        Yields ``True`` if woken, ``False`` on timeout.
        """
        self._sleepers.append(task)
        if timeout_ns is None:
            woken = yield Park()
        else:
            woken = yield ParkTimeout(timeout_ns)
        if not woken:
            # Timed out: remove ourselves if still queued.
            try:
                self._sleepers.remove(task)
            except ValueError:
                pass
        return woken

    def wake_one(self, waker: Task) -> Iterator:
        """Wake the oldest sleeper (no-op when empty)."""
        if self._sleepers:
            target = self._sleepers.popleft()
            yield Unpark(target)

    def wake_all(self, waker: Task) -> Iterator:
        """Wake every sleeper."""
        while self._sleepers:
            target = self._sleepers.popleft()
            yield Unpark(target)


class Barrier:
    """A single-use start barrier for ``n`` tasks.

    The n-th arriver wakes everyone; used by the workload runner so every
    worker starts its measurement loop at (nearly) the same simulated
    instant.
    """

    def __init__(self, parties: int, name: str = "barrier") -> None:
        if parties <= 0:
            raise ValueError("parties must be positive")
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._queue = WaitQueue(name)

    def wait(self, task: Task) -> Iterator:
        self._arrived += 1
        if self._arrived >= self.parties:
            yield from self._queue.wake_all(task)
            return
        while self._arrived < self.parties:
            yield from self._queue.sleep(task)


class Completion:
    """One-shot event (cf. ``struct completion``)."""

    def __init__(self, name: str = "completion") -> None:
        self.name = name
        self.done = False
        self._queue = WaitQueue(name)

    def wait(self, task: Task) -> Iterator:
        while not self.done:
            yield from self._queue.sleep(task)

    def complete_all(self, task: Task) -> Iterator:
        self.done = True
        yield from self._queue.wake_all(task)
