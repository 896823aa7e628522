"""Discrete-event simulation engine.

The engine keeps a heap of timestamped events and advances a simulated
clock measured in **microseconds** (float).  Concurrency is expressed with
*processes*: plain Python generators that ``yield`` waitables (timeouts,
events, other processes, resource acquisitions).  The style is deliberately
close to SimPy's, but the implementation is lean and self-contained so that
the hot paths of the swap simulation stay cheap.

Example
-------
>>> from repro.sim.engine import Engine
>>> eng = Engine()
>>> log = []
>>> def worker(eng, name, delay):
...     yield eng.timeout(delay)
...     log.append((eng.now, name))
>>> _ = eng.spawn(worker(eng, "a", 5.0))
>>> _ = eng.spawn(worker(eng, "b", 2.0))
>>> eng.run()
>>> log
[(2.0, 'b'), (5.0, 'a')]
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "DEBUG_EVENT_NAMES",
]

#: When set (``REPRO_EVENT_NAMES=1``), hot-path call sites build their
#: descriptive f-string event names; by default they pass "" and the
#: allocation-heavy formatting is skipped entirely.
DEBUG_EVENT_NAMES = os.environ.get("REPRO_EVENT_NAMES", "") not in ("", "0")

#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = object()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is fired exactly once with
    :meth:`succeed` (or :meth:`fail`), after which every waiting process
    is resumed with the event's value (or the failure exception raised
    inside it).
    """

    __slots__ = ("engine", "_value", "_exc", "_fired", "_callbacks", "name", "generation")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._fired = False
        self._callbacks: list[Callable[["Event"], None]] = []
        #: Bumped on every :meth:`reset`; recycling invariant tests use it
        #: to tell incarnations of a reused event apart.
        self.generation = 0

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("event value read before it fired")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, resuming all waiters at the current sim time."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        self.engine._immediate.append(self._dispatch)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception; waiters see it raised."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._exc = exc
        self.engine._immediate.append(self._dispatch)
        return self

    def grant(self, value: Any = None) -> "Event":
        """Fire synchronously without scheduling a dispatch step.

        Only valid while no waiter has subscribed: late subscribers are
        delivered through the immediate lane anyway, so skipping the
        empty dispatch keeps FIFO order while saving one engine step.
        Used by resource fast paths that grant at creation time (an
        uncontended lock, a semaphore with a free slot, a non-empty
        FIFO store).
        """
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        if self._callbacks:
            raise SimulationError(f"grant of {self.name!r} with subscribers")
        self._fired = True
        self._value = value
        return self

    def reset(self) -> "Event":
        """Return a fired-and-delivered event to the pending state.

        Reuse discipline (single-waiter park/kick events, pooled request
        completions): reset only *after* the firing has been dispatched —
        a pending event, or one whose callbacks have not run yet, refuses
        to reset so a stale waiter can never be silently dropped.  The
        generation counter ties late observers to one incarnation.
        """
        if not self._fired:
            raise SimulationError(f"reset of pending event {self.name!r}")
        if self._callbacks:
            raise SimulationError(
                f"reset of {self.name!r} with undelivered callbacks"
            )
        self._fired = False
        self._value = None
        self._exc = None
        self.generation += 1
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._fired:
            # Late subscription: deliver on the next engine step (FIFO
            # with everything else queued at the current time).
            self.engine._immediate.append(partial(callback, self))
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay", "_fire_cb")

    def __init__(self, engine: "Engine", delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(
            engine, name=f"timeout({delay})" if DEBUG_EVENT_NAMES else "timeout"
        )
        self.delay = delay
        # The bound method is cached so pooled reuse schedules it without
        # allocating a fresh method object per sleep.
        self._fire_cb = self._fire
        engine._schedule_call(delay, self._fire_cb)

    def _fire(self) -> None:
        self._fired = True
        self._value = None
        self._dispatch()


class _PooledTimeout(Timeout):
    """A timeout drawn from the engine's free list via :meth:`Engine.sleep`.

    It recycles itself into the pool right after its firing has been
    dispatched, so the waiter that yielded it has already resumed (or its
    stale callback has been cleared) by the time the object can be handed
    out again.  Discipline: a pooled timeout must be yielded immediately
    by its creator (or handed to ``any_of``) and never stored for later —
    in particular never placed under ``all_of``, which reads child values
    after the last child fires.
    """

    __slots__ = ()

    def _fire(self) -> None:
        self._fired = True
        self._dispatch()
        self.engine._timeout_pool.append(self)


class Process(Event):
    """A running coroutine; also an event that fires when it returns.

    The wrapped generator yields waitables.  When a yielded event fires,
    the process resumes with the event's value; if the event failed, the
    exception is thrown into the generator.
    """

    __slots__ = ("generator", "_waiting_on", "_interrupt_pending", "_on_event_cb")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupt_pending: Optional[Interrupt] = None
        # Cached bound method: every yield subscribes it to the target
        # event, so building it per step would allocate on the hot path.
        self._on_event_cb = self._on_event
        engine._immediate.append(self._start)

    def _start(self) -> None:
        self._step(None, None)

    @property
    def alive(self) -> bool:
        return not self._fired

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._fired:
            return
        interrupt = Interrupt(cause)
        self._interrupt_pending = interrupt
        waiting = self._waiting_on
        self._waiting_on = None
        # The stale wakeup from `waiting` is ignored via the _waiting_on check.
        del waiting
        self.engine._immediate.append(self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        interrupt, self._interrupt_pending = self._interrupt_pending, None
        if interrupt is None or self._fired:
            return
        self._step(None, interrupt)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup (e.g. interrupted while waiting)
        self._waiting_on = None
        if event._exc is not None:
            self._step(None, event._exc)
        else:
            self._step(event._value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is None:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(exc)
        except StopIteration as stop:
            self._fired = True
            self._value = stop.value
            self._dispatch()
            return
        except Interrupt:
            # Process chose not to handle its interrupt: treat as a clean exit.
            self._fired = True
            self._value = None
            self._dispatch()
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
        self._waiting_on = target
        target.add_callback(self._on_event_cb)


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._children:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._fired:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._children])


class AnyOf(Event):
    """Fires as soon as any child event fires; value is (index, value)."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for index, event in enumerate(self._children):
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(event: Event) -> None:
            if self._fired:
                return
            if event._exc is not None:
                self.fail(event._exc)
            else:
                self.succeed((index, event._value))

        return on_child


class Engine:
    """The event loop: a clock plus a heap of scheduled callbacks.

    Zero-delay work (event firings, process starts/resumes, late callback
    subscriptions) dominates the swap simulation's event count, so it takes
    a fast lane: a plain FIFO deque (``_immediate``) instead of the heap.
    Ordering is exactly what the single heap produced, because an entry in
    the heap timestamped *now* was necessarily scheduled earlier (it needed
    a positive delay to land at the current time) and therefore precedes —
    in FIFO sequence — anything appended to the deque at the current time.
    The dispatch rule in :meth:`_run_core` encodes that invariant.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._immediate: deque = deque()
        self._seq = 0
        self._running = False
        self._step_count = 0
        #: Free list of recycled :class:`_PooledTimeout` objects.
        self._timeout_pool: list[_PooledTimeout] = []
        #: Shared permanently-fired event for value-less immediate grants
        #: (uncontended lock/semaphore acquires).  Safe to hand to any
        #: number of concurrent waiters: it carries no value, is never
        #: reset, and every subscription is a late one delivered through
        #: the immediate lane.
        self.granted: Event = Event(self, "granted").grant()

    # -- scheduling ------------------------------------------------------

    def _schedule_call(self, delay: float, callback: Callable[[], None]) -> None:
        if delay == 0.0:
            self._immediate.append(callback)
            return
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        self._schedule_call(when - self.now, callback)

    def call_after(
        self, delay: float, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback()`` (or ``callback(arg)``) after ``delay`` µs.

        The optional ``arg`` is carried in the scheduling entry itself, so
        hot paths can schedule per-object work without allocating a
        closure per call.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if arg is _NO_ARG:
            self._schedule_call(delay, callback)
        elif delay == 0.0:
            self._immediate.append((callback, arg))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (self.now + delay, self._seq, callback, arg))

    # -- waitable factories ----------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def sleep(self, delay: float) -> Timeout:
        """A pooled :class:`Timeout`: allocation-free on the steady state.

        The returned object recycles itself once its firing has been
        dispatched.  Callers must yield it immediately (directly or via
        ``any_of``); see :class:`_PooledTimeout` for the discipline.
        """
        pool = self._timeout_pool
        if not pool:
            return _PooledTimeout(self, delay)
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        timeout = pool.pop()
        timeout._fired = False
        timeout._value = None
        timeout._exc = None
        timeout.generation += 1
        timeout.delay = delay
        self._schedule_call(delay, timeout._fire_cb)
        return timeout

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator and return its handle."""
        return Process(self, generator, name=name)

    # -- execution ---------------------------------------------------------

    def _run_core(
        self,
        until: Optional[float] = None,
        max_steps: Optional[int] = None,
        stop_event: Optional[Event] = None,
        limit: Optional[float] = None,
    ) -> None:
        """The one stepping loop behind :meth:`run` and :meth:`run_until_fired`.

        Dispatch order per iteration: heap entries timestamped *now* (they
        were scheduled before anything currently in the immediate deque),
        then the immediate deque FIFO, then the heap entry that advances
        the clock.  ``until`` bounds the clock (reached exactly on exit);
        ``limit`` raises instead of advancing past it; ``stop_event``
        stops as soon as the event has fired.

        Entries come in two shapes per lane: heap entries are
        ``(when, seq, callback)`` or ``(when, seq, callback, arg)``;
        immediate entries are a bare callable or ``(callback, arg)``.
        The arg-carrying forms let hot paths schedule per-object work
        without a closure allocation (see :meth:`call_after`).
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        steps = 0
        heap = self._heap
        immediate = self._immediate
        pop = heapq.heappop
        popleft = immediate.popleft
        try:
            while True:
                if stop_event is not None and stop_event._fired:
                    break
                if heap:
                    when = heap[0][0]
                    if when <= self.now:
                        entry = pop(heap)
                        if len(entry) == 3:
                            entry[2]()
                        else:
                            entry[2](entry[3])
                    elif immediate:
                        entry = popleft()
                        if type(entry) is tuple:
                            entry[0](entry[1])
                        else:
                            entry()
                    else:
                        if until is not None and when > until:
                            break
                        if limit is not None and when > limit:
                            raise SimulationError(
                                f"event did not fire before t={limit}"
                            )
                        self.now = when
                        entry = pop(heap)
                        if len(entry) == 3:
                            entry[2]()
                        else:
                            entry[2](entry[3])
                elif immediate:
                    entry = popleft()
                    if type(entry) is tuple:
                        entry[0](entry[1])
                    else:
                        entry()
                else:
                    break
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._step_count += steps
            self._running = False

    def run(self, until: Optional[float] = None, max_steps: Optional[int] = None) -> float:
        """Drain the scheduled work.

        Stops when nothing is pending, when the next event lies beyond
        ``until`` (the clock is then advanced exactly to ``until``), or
        after ``max_steps`` dispatched callbacks.  Returns the final clock.
        """
        self._run_core(until=until, max_steps=max_steps)
        return self.now

    def run_until_fired(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` fires; returns its value.

        ``limit`` bounds the simulated time as a safety net; exceeding it
        raises :class:`SimulationError`.
        """
        self._run_core(stop_event=event, limit=limit)
        if not event._fired:
            raise SimulationError("event can never fire: heap is empty")
        if event._exc is not None:
            raise event._exc
        return event._value

    @property
    def pending_events(self) -> int:
        return len(self._heap) + len(self._immediate)

    @property
    def step_count(self) -> int:
        """Total callbacks dispatched across all run calls."""
        return self._step_count
