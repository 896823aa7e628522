"""Virtual queue pairs (VQPs).

Canvas gives each cgroup a set of VQPs — high-level, lock-free request
queues the application side pushes into, while the centralized scheduler
pops from the other end and forwards onto physical QPs (§4).  We keep one
FIFO per request kind (demand / prefetch / swap-out) per cgroup so the
per-application sub-scheduler can prioritize between them.

A timestamp is attached to each request on push; the §5.3 timeliness
logic uses it to estimate whether a prefetch can still arrive in time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.rdma.message import RdmaRequest, RequestKind
from repro.sim.engine import Engine

__all__ = ["VirtualQP"]


class VirtualQP:
    """Per-cgroup request queues awaiting central scheduling."""

    def __init__(self, engine: Engine, app_name: str):
        self.engine = engine
        self.app_name = app_name
        #: Direct per-kind handles: the scheduler's selection loop peeks
        #: these thousands of times per co-run, so they are attributes
        #: (no enum-hashed dict probe on the hot path).
        self.demand_q: Deque[RdmaRequest] = deque()
        self.prefetch_q: Deque[RdmaRequest] = deque()
        self.swapout_q: Deque[RdmaRequest] = deque()
        self._queues: Dict[RequestKind, Deque[RdmaRequest]] = {
            RequestKind.DEMAND: self.demand_q,
            RequestKind.PREFETCH: self.prefetch_q,
            RequestKind.SWAPOUT: self.swapout_q,
        }
        self.pushed_total = 0
        self.popped_total = 0
        self.dropped_total = 0
        #: Kernel-level retries (reissues after an error CQE) re-entering
        #: this VQP; distinguishes fault-recovery traffic from fresh work.
        self.retried_total = 0

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depth(self, kind: RequestKind) -> int:
        return len(self._queues[kind])

    def push(self, request: RdmaRequest) -> None:
        """Application side: enqueue and stamp the request."""
        now = self.engine.now
        request.enqueued_at_us = now
        kind = request.kind
        if kind is RequestKind.DEMAND:
            self.demand_q.append(request)
        elif kind is RequestKind.PREFETCH:
            # §5.3: remember on the swap entry that a prefetch is in flight
            # so a later faulting thread can detect and drop it if stale.
            request.entry.timestamp_us = now
            self.prefetch_q.append(request)
        else:
            self.swapout_q.append(request)
        self.pushed_total += 1
        if request.kernel_retries:
            self.retried_total += 1

    def pop(self, kind: RequestKind) -> Optional[RdmaRequest]:
        """Scheduler side: dequeue the oldest request of ``kind``.

        Requests marked dropped while queued are discarded here.
        """
        queue = self._queues[kind]
        while queue:
            request = queue.popleft()
            if request.dropped:
                self.dropped_total += 1
                if request.owner is not None:
                    # A discarded pooled request never reaches the NIC;
                    # recycle it now that it has left every queue.
                    self.engine._immediate.append(request._recycle_cb)
                continue
            self.popped_total += 1
            return request
        return None

    def peek(self, kind: RequestKind) -> Optional[RdmaRequest]:
        queue = self._queues[kind]
        for request in queue:
            if not request.dropped:
                return request
        return None

    def has_pending(self) -> bool:
        return any(
            any(not r.dropped for r in queue) for queue in self._queues.values()
        )
