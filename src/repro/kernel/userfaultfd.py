"""The modified userfaultfd channel (§5.2).

Canvas modifies the kernel's userfaultfd interface so faulting addresses
are forwarded to user space *only while the kernel-tier prefetcher keeps
failing*.  The application side (a language runtime such as the JVM) runs
a daemon prefetching thread that consumes forwarded addresses, analyzes
semantic patterns, and pushes prefetch requests back down through
``async_prefetch``.

The daemon burns the application's own CPU allocation — the reason Canvas
disables the application tier whenever the kernel tier works: "the
application-tier prefetcher needs extra compute resources to run."
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.kernel.cgroup import AppContext
from repro.sim.engine import Engine
from repro.sim.resources import FIFOStore

__all__ = ["UserfaultfdChannel"]

#: handler(thread_id, vpn) -> VPNs to prefetch.
FaultHandler = Callable[[int, int], List[int]]
#: async_prefetch(app, vpns) -> number issued.
AsyncPrefetch = Callable[[AppContext, List[int]], int]


class UserfaultfdChannel:
    """Kernel→user fault forwarding plus the user-side daemon thread."""

    def __init__(
        self,
        engine: Engine,
        app: AppContext,
        async_prefetch: AsyncPrefetch,
        handler_cost_us: float = 2.0,
        forward_cost_us: float = 0.3,
        max_queue: int = 256,
    ):
        self.engine = engine
        self.app = app
        self.async_prefetch = async_prefetch
        #: CPU the daemon spends analyzing one forwarded address.
        self.handler_cost_us = handler_cost_us
        #: Kernel-side cost of forwarding one address up.
        self.forward_cost_us = forward_cost_us
        self.max_queue = max_queue
        self._store = FIFOStore(engine, name=f"uffd.{app.name}")
        self._handler: Optional[FaultHandler] = None
        self.forwarded = 0
        self.handled = 0
        self.overflow_drops = 0
        self.prefetches_submitted = 0
        self._daemon = engine.spawn(self._daemon_loop(), name=f"uffd.{app.name}.daemon")

    def register_handler(self, handler: FaultHandler) -> None:
        """Install the runtime's semantic-pattern analyzer."""
        self._handler = handler

    @property
    def has_handler(self) -> bool:
        return self._handler is not None

    def forward(self, thread_id: int, vpn: int) -> None:
        """Kernel side: push a faulting address up to the application tier."""
        if self._handler is None:
            return
        if len(self._store) >= self.max_queue:
            self.overflow_drops += 1
            return
        self.forwarded += 1
        self.app.stats.uffd_forwards += 1
        self._store.put((thread_id, vpn))

    def _daemon_loop(self) -> Generator:
        engine = self.engine
        store = self._store
        while True:
            # Inline the buffered-get: with an item already queued and
            # nothing else runnable at this instant (empty immediate
            # lane, no heap entry due), the granted event's late
            # subscription would be the very next dispatch — taking the
            # item synchronously is order-identical, not merely
            # equivalent-in-practice, and saves that engine step.
            if store._items and not engine._immediate:
                heap = engine._heap
                if not heap or heap[0][0] > engine.now:
                    thread_id, vpn = store._items.popleft()
                else:
                    thread_id, vpn = yield store.get()
            else:
                thread_id, vpn = yield store.get()
            if self._handler is None:
                continue
            # The daemon occupies one of the application's cores while it
            # walks the summary graph / per-thread histories.
            yield from self.app.cores.execute(self.handler_cost_us)
            vpns = self._handler(thread_id, vpn)
            self.handled += 1
            if vpns:
                self.prefetches_submitted += self.async_prefetch(self.app, vpns)
