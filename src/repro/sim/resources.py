"""Synchronization and resource primitives for the simulation engine.

These are the simulated analogues of the kernel objects the swap system
contends on: spinlocks protecting allocator free lists, semaphores, FIFO
stores used as message queues, and a core-set model for cgroup CPU limits.
All of them collect contention statistics, because lock contention *is* one
of the headline measurements in the Canvas paper (Figs. 4, 13, 15, 16).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import DEBUG_EVENT_NAMES, Engine, Event, SimulationError

__all__ = ["LockStats", "SimLock", "Semaphore", "FIFOStore", "CoreSet"]


@dataclass
class LockStats:
    """Aggregate contention statistics for a :class:`SimLock`."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_us: float = 0.0
    total_hold_us: float = 0.0
    max_queue_len: int = 0

    @property
    def mean_wait_us(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait_us / self.acquisitions

    @property
    def contention_ratio(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions


class SimLock:
    """A FIFO mutex with wait/hold accounting.

    Usage inside a process::

        yield lock.acquire()
        try:
            yield engine.timeout(critical_section_us)
        finally:
            lock.release()
    """

    def __init__(self, engine: Engine, name: str = "lock"):
        self.engine = engine
        self.name = name
        self.stats = LockStats()
        self._locked = False
        self._waiters: Deque[tuple[Event, float]] = deque()
        self._acquired_at = 0.0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires when the caller holds the lock."""
        if not self._locked:
            self._locked = True
            self._acquired_at = self.engine.now
            self.stats.acquisitions += 1
            if DEBUG_EVENT_NAMES:
                return Event(self.engine, f"{self.name}.acquire").grant()
            return self.engine.granted
        event = Event(
            self.engine, f"{self.name}.acquire" if DEBUG_EVENT_NAMES else ""
        )
        self.stats.contended_acquisitions += 1
        self._waiters.append((event, self.engine.now))
        self.stats.max_queue_len = max(self.stats.max_queue_len, len(self._waiters))
        return event

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name}")
        self.stats.total_hold_us += self.engine.now - self._acquired_at
        if self._waiters:
            event, enqueued_at = self._waiters.popleft()
            self.stats.acquisitions += 1
            self.stats.total_wait_us += self.engine.now - enqueued_at
            self._acquired_at = self.engine.now
            event.succeed()
        else:
            self._locked = False


class Semaphore:
    """A counting semaphore with FIFO wakeup order."""

    def __init__(self, engine: Engine, capacity: int, name: str = "sem"):
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        if self._in_use < self.capacity:
            self._in_use += 1
            if DEBUG_EVENT_NAMES:
                return Event(self.engine, f"{self.name}.acquire").grant()
            return self.engine.granted
        event = Event(
            self.engine, f"{self.name}.acquire" if DEBUG_EVENT_NAMES else ""
        )
        self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle semaphore {self.name}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class FIFOStore:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event carrying the next item,
    firing immediately if one is buffered.  Used for message queues between
    simulated components (e.g. VQP → scheduler hand-off).
    """

    def __init__(self, engine: Engine, name: str = "store"):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.engine, f"{self.name}.get" if DEBUG_EVENT_NAMES else "")
        if self._items:
            # The item rides on a fresh event (values differ per get), but
            # the empty dispatch step is skipped — the getter subscribes
            # late and is delivered through the immediate lane.
            event.grant(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek_all(self) -> list:
        return list(self._items)


@dataclass
class CoreSetStats:
    busy_us: float = 0.0
    executions: int = 0
    total_runqueue_wait_us: float = 0.0


class CoreSet:
    """A pool of CPU cores with a FIFO run queue.

    Models a cgroup's CPU allotment: an application with ``n_cores`` cores
    can execute at most that many thread slices concurrently.  Threads call
    :meth:`execute` to burn CPU time; excess runnable threads queue.
    """

    def __init__(self, engine: Engine, n_cores: int, name: str = "cores"):
        self.engine = engine
        self.name = name
        self.n_cores = n_cores
        self.stats = CoreSetStats()
        self._sem = Semaphore(engine, n_cores, name=f"{name}.sem")

    def execute(self, duration_us: float) -> Generator:
        """Process sub-generator: occupy one core for ``duration_us``."""
        engine = self.engine
        sem = self._sem
        if sem._in_use < sem.capacity and not engine._immediate:
            heap = engine._heap
            if not heap or heap[0][0] > engine.now:
                # Inline the uncontended acquire.  The granted-event path
                # would append the resume to the (empty) immediate lane and
                # the engine — with no heap entry due now — would dispatch
                # it as the very next step, so no other process can run
                # between the grant and the resume: skipping that step is
                # order-identical, not merely equivalent-in-practice.
                sem._in_use += 1
                try:
                    yield engine.sleep(duration_us)
                    self.stats.busy_us += duration_us
                    self.stats.executions += 1
                finally:
                    sem.release()
                return
        enqueued_at = engine.now
        yield sem.acquire()
        self.stats.total_runqueue_wait_us += engine.now - enqueued_at
        try:
            yield engine.sleep(duration_us)
            self.stats.busy_us += duration_us
            self.stats.executions += 1
        finally:
            self._sem.release()

    def utilization(self, elapsed_us: float) -> float:
        """Mean fraction of the core set busy over ``elapsed_us``."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.stats.busy_us / (elapsed_us * self.n_cores))
