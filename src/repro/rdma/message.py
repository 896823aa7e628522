"""RDMA request descriptors.

Every swap I/O becomes one :class:`RdmaRequest`: a read for swap-ins
(demand or prefetch) or a write for swap-outs.  Requests carry the
timestamps needed for the paper's latency CDFs (Fig. 6, Fig. 14):
``enqueued_at_us`` when the kernel pushes the request into a queue pair,
``issued_at_us`` when the NIC starts serving it, and ``completed_at_us``
when the data lands.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

from repro.mem.page import PAGE_SIZE
from repro.obs.trace import REQ_RECYCLE
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.page import Page
    from repro.swap.entry import SwapEntry

__all__ = ["RdmaOp", "RequestKind", "RdmaRequest", "acquire_request"]

_request_ids = itertools.count()
_pool_serials = itertools.count()


class RdmaOp(enum.Enum):
    READ = "read"  # swap-in: remote -> local
    WRITE = "write"  # swap-out: local -> remote

    # Enum's default __hash__ is a Python-level call on the member name;
    # these members key the NIC's per-op dispatch tables, hashed on
    # every dispatch iteration.  Identity hashing (members are
    # singletons, and enum equality is already identity) keeps those
    # lookups in C.  Dicts iterate in insertion order either way, so no
    # observable ordering depends on the hash values.
    __hash__ = object.__hash__


class RequestKind(enum.Enum):
    DEMAND = "demand"
    PREFETCH = "prefetch"
    SWAPOUT = "swapout"
    #: Rack-level page migration (server drain / failure re-homing); the
    #: op distinguishes the replica read from the new-home write.
    REHOME = "rehome"

    __hash__ = object.__hash__  # same rationale as RdmaOp


class RdmaRequest:
    """One page-sized RDMA verb plus its bookkeeping."""

    __slots__ = (
        "request_id",
        "pool_serial",
        "op",
        "kind",
        "app_name",
        "entry",
        "page",
        "size_bytes",
        "enqueued_at_us",
        "issued_at_us",
        "completed_at_us",
        "completion",
        "dropped",
        "error",
        "retries",
        "kernel_retries",
        "retry_stall_us",
        "owner",
        "_recycle_cb",
        "_in_pool",
    )

    def __init__(
        self,
        op: RdmaOp,
        kind: RequestKind,
        app_name: str,
        entry: "SwapEntry",
        page: Optional["Page"] = None,
        size_bytes: int = PAGE_SIZE,
        completion: Optional["Event"] = None,
    ):
        self.request_id: int = next(_request_ids)
        #: Construction-order identity of the *object*.  ``request_id``
        #: is refreshed on every pooled reuse, so trace invariants about
        #: the object's lifecycle (never live twice) key on this instead.
        self.pool_serial: int = next(_pool_serials)
        self.op = op
        self.kind = kind
        self.app_name = app_name
        self.entry = entry
        self.page = page
        self.size_bytes = size_bytes
        self.enqueued_at_us: Optional[float] = None
        self.issued_at_us: Optional[float] = None
        self.completed_at_us: Optional[float] = None
        #: Fired when the transfer completes (never fired if dropped).
        self.completion: Optional["Event"] = completion
        #: Canvas §5.3: stale prefetches are dropped instead of served.
        self.dropped = False
        #: True once the NIC exhausted its retransmission budget: the
        #: completion event fires carrying an *error CQE* and the kernel
        #: must recover (retry the demand read, cancel the prefetch, ...).
        self.error = False
        #: Transport-level retransmissions this life suffered (NIC-side).
        self.retries = 0
        #: Kernel-level reissues behind this logical transfer: a retried
        #: demand read or writeback carries its predecessor's count + 1.
        self.kernel_retries = 0
        #: Total time this life spent waiting on retransmission timeouts;
        #: folded into per-cgroup retry-stall accounting at completion.
        self.retry_stall_us = 0.0
        #: The swap system this request belongs to, when it participates
        #: in request pooling; None for standalone requests (tests).
        self.owner = None
        self._recycle_cb = self._recycle
        self._in_pool = False

    def __call__(self, _event: "Event") -> None:
        """Completion-event callback: dispatch to the owning swap system.

        Registering the request object itself keeps the exact callback
        slot the old per-request lambda occupied, without the closure.
        """
        self.owner._request_completed(self)

    def reuse(
        self,
        op: RdmaOp,
        kind: RequestKind,
        app_name: str,
        entry: "SwapEntry",
        page: Optional["Page"],
    ) -> None:
        """Re-arm a pooled request for a new transfer.

        A *fresh* ``request_id`` is assigned on every reuse: schedulers
        key in-flight bookkeeping (e.g. forward timestamps) by id, so id
        reuse would alias a past life of the object.
        """
        self.request_id = next(_request_ids)
        self.op = op
        self.kind = kind
        self.app_name = app_name
        self.entry = entry
        self.page = page
        self.size_bytes = PAGE_SIZE
        self.enqueued_at_us = None
        self.issued_at_us = None
        self.completed_at_us = None
        self.dropped = False
        self.error = False
        self.retries = 0
        self.kernel_retries = 0
        self.retry_stall_us = 0.0
        self._in_pool = False

    def _recycle(self) -> None:
        """Return this request (and its completion event) to the pool.

        Scheduled on the engine's immediate lane strictly after the
        completion dispatch (or after the dropped-request unwind), so no
        live waiter can still observe the recycled state.
        """
        if self._in_pool:
            return
        self._in_pool = True
        tr = getattr(self.owner, "trace", None)
        if tr is not None:
            tr.emit(REQ_RECYCLE, self.app_name, 0, self.pool_serial, self.request_id)
        self.entry = None
        self.page = None
        if self.completion._fired:
            self.completion.reset()
        else:
            # A dropped request never fired its completion; clear the
            # bound-dispatch callback so the next life starts clean.
            self.completion._callbacks.clear()
        self.owner._request_pool.append(self)

    @property
    def latency_us(self) -> Optional[float]:
        """Queueing + service latency, None while incomplete."""
        if self.completed_at_us is None or self.enqueued_at_us is None:
            return None
        return self.completed_at_us - self.enqueued_at_us

    def __repr__(self) -> str:  # pragma: no cover
        entry_id = self.entry.entry_id if self.entry is not None else None
        return (
            f"RdmaRequest(#{self.request_id}, {self.op.value}/{self.kind.value}, "
            f"app={self.app_name!r}, entry={entry_id})"
        )


def acquire_request(
    owner,
    op: RdmaOp,
    kind: RequestKind,
    app_name: str,
    entry: "SwapEntry",
    page: Optional["Page"],
) -> RdmaRequest:
    """A request from ``owner``'s pool with its completion event armed.

    ``owner`` is a request-pool owner (a swap system or the rack): it
    has an ``engine``, a ``_request_pool`` list that recycled requests
    return to, and a ``_request_completed(request)`` handler.  The
    request object itself is the completion callback (bound dispatch,
    no per-request closure), registered first, so waiters subscribing
    later run after the owner's completion handler.
    """
    pool = owner._request_pool
    if pool:
        request = pool.pop()
        request.reuse(op, kind, app_name, entry, page)
    else:
        request = RdmaRequest(
            op, kind, app_name, entry, page, completion=Event(owner.engine)
        )
        request.owner = owner
    request.completion.add_callback(request)
    return request
