"""The RNIC and fabric model.

Geometry matches the paper's testbed: one 40 Gbps InfiniBand adapter per
host, so all co-running applications share a single NIC.  The model has
three pieces:

* :class:`DirectionalChannel` — the wire in one direction.  Transfers
  serialize on the wire for ``size / bandwidth``; propagation latency is
  pipelined (it delays completion but does not occupy the wire).
* :class:`PhysicalQP` — a FIFO of requests with a static priority, the
  unit the kernel posts verbs to.  Fastswap's sync/async split and
  Canvas's 3-PQPs-per-core layout are both configurations of these.
* :class:`RNIC` — one dispatch loop per direction that repeatedly picks
  the next request from the ready QPs (strict priority, round-robin
  within a priority level) and serves it.

Calibration: 40 Gbps ≈ 4800 payload bytes/µs after protocol overhead, so
a 4 KB page occupies the wire ~0.85 µs; with ~3 µs base latency and ~1 µs
verb overhead an unloaded demand read lands in ~5 µs and a loaded one in
tens of µs, matching Fig. 6's "99% of demand requests within 40 µs".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.trace import (
    QP_COMPLETE,
    QP_DROP_SKIP,
    QP_ENQ,
    QP_ERROR_CQE,
    QP_SERVE,
    RETRANSMIT,
    WIRE_DROP,
    WIRE_ERROR,
)
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind
from repro.sim.engine import Engine, Event

__all__ = ["DirectionalChannel", "PhysicalQP", "RNIC", "NicStats"]

#: FaultPlan verdict codes, mirrored from :mod:`repro.faults` (kept as
#: bare ints here so the NIC never imports the faults module).
_FAULT_DROP, _FAULT_ERROR = 1, 2

#: 40 Gbps = 5000 bytes/µs raw; ~4% header/protocol overhead.
DEFAULT_BANDWIDTH_BYTES_PER_US = 4800.0
DEFAULT_BASE_LATENCY_US = 3.0
DEFAULT_VERB_OVERHEAD_US = 1.0


class DirectionalChannel:
    """One direction of the wire: a serializing bandwidth server."""

    def __init__(self, name: str, bandwidth_bytes_per_us: float):
        if bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        self.name = name
        self.bandwidth_bytes_per_us = bandwidth_bytes_per_us
        self.busy_until_us = 0.0
        self.bytes_transferred = 0

    def reserve(
        self, now_us: float, size_bytes: int, bandwidth_scale: float = 1.0
    ) -> float:
        """Occupy the wire for one transfer; returns wire-release time.

        ``bandwidth_scale`` shrinks effective bandwidth during fault-plan
        degradation windows; the default multiplies by 1.0, which is
        exact in IEEE arithmetic, so un-degraded transfers stay
        bit-identical to the two-argument call.
        """
        start = max(now_us, self.busy_until_us)
        self.busy_until_us = start + size_bytes / (
            self.bandwidth_bytes_per_us * bandwidth_scale
        )
        self.bytes_transferred += size_bytes
        return self.busy_until_us


class PhysicalQP:
    """A NIC queue pair: FIFO of requests with a dispatch priority.

    Lower ``priority`` values are served first (0 = most urgent).
    """

    def __init__(self, name: str, priority: int = 0):
        self.name = name
        self.priority = priority
        self._queue: Deque[RdmaRequest] = deque()
        self.enqueued_total = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, request: RdmaRequest) -> None:
        self._queue.append(request)
        self.enqueued_total += 1


@dataclass
class NicStats:
    reads_completed: int = 0
    writes_completed: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    dropped_skipped: int = 0
    #: Completion mix by request kind (demand/prefetch reads, swap-out
    #: writes); lets benchmarks report the served mix without hooks.
    demand_completed: int = 0
    prefetch_completed: int = 0
    swapout_completed: int = 0
    #: Fault-plan accounting.  Every injected verb fault is eventually
    #: either retransmitted or surfaced as an error CQE, so
    #: ``wire_drops + completion_errors == retransmits + transport_failures``
    #: once the fabric drains (the chaos suite asserts exactly this).
    wire_drops: int = 0
    completion_errors: int = 0
    retransmits: int = 0
    transport_failures: int = 0
    error_cqes_delivered: int = 0
    #: Dispatch time spent waiting out link flaps (µs) and transfers
    #: served inside a bandwidth-degradation window.
    flap_stall_us: float = 0.0
    degraded_transfers: int = 0
    #: Completions delayed by a remote-server slowdown episode.
    server_delayed: int = 0
    #: Rack model: verbs aimed at a dead memory server (immediate error
    #: CQE, no wire time) and completed migration transfers.
    dead_target_errors: int = 0
    rehome_completed: int = 0


class RNIC:
    """One host NIC shared by every application on the machine."""

    def __init__(
        self,
        engine: Engine,
        read_bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US,
        write_bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US,
        base_latency_us: float = DEFAULT_BASE_LATENCY_US,
        verb_overhead_us: float = DEFAULT_VERB_OVERHEAD_US,
        name: str = "rnic",
    ):
        self.engine = engine
        self.name = name
        self.read_channel = DirectionalChannel(f"{name}.read", read_bandwidth_bytes_per_us)
        self.write_channel = DirectionalChannel(f"{name}.write", write_bandwidth_bytes_per_us)
        self.base_latency_us = base_latency_us
        self.verb_overhead_us = verb_overhead_us
        self.stats = NicStats()
        #: Optional :class:`repro.faults.FaultPlan`.  Every injection
        #: site in the serve step is gated on this attribute, so with
        #: None (the default) no fault arithmetic runs.
        self.fault_plan = None
        #: Optional :class:`repro.obs.TraceBuffer`; every tracepoint is
        #: a single ``is not None`` check while unset.
        self.tracer = None
        #: Optional :class:`repro.cluster.Rack`.  When set, each served
        #: transfer also reserves its target memory server's channel
        #: (the later release wins), and verbs aimed at a dead server
        #: surface error CQEs without touching the wire.  Every site is
        #: gated on this attribute, and a one-server rack at scale 1.0
        #: mirrors the uplink in lockstep, so the single-endpoint
        #: timestamps are preserved bit for bit.
        self.rack = None
        #: Lazily created per-op retransmission QPs.  Priority -1 sorts
        #: ahead of every kernel QP, so a retried transfer re-enters
        #: service before new work — RC hardware replays from the send
        #: queue head the same way — and scheduler window accounting
        #: never sees the retry (the original forward still owns the
        #: outstanding slot until one completion fires).
        self._rtx_qps: Dict[RdmaOp, PhysicalQP] = {}
        self._qps: Dict[RdmaOp, List[PhysicalQP]] = {RdmaOp.READ: [], RdmaOp.WRITE: []}
        #: Priority-group dispatch tables: per op, the QPs grouped by
        #: priority level (ascending), precomputed at create_qp time so
        #: ``_select`` never regroups the sorted list per call.
        self._groups: Dict[RdmaOp, List[List[PhysicalQP]]] = {
            RdmaOp.READ: [],
            RdmaOp.WRITE: [],
        }
        self._rr_cursor: Dict[RdmaOp, int] = {RdmaOp.READ: 0, RdmaOp.WRITE: 0}
        self._dispatch_idle: Dict[RdmaOp, bool] = {RdmaOp.READ: True, RdmaOp.WRITE: True}
        self._wakeups: Dict[RdmaOp, Optional[Event]] = {RdmaOp.READ: None, RdmaOp.WRITE: None}
        #: One reusable park event per dispatch loop (reset after resume).
        self._park_events: Dict[RdmaOp, Event] = {
            op: Event(engine, f"{name}.{op.value}.wakeup")
            for op in (RdmaOp.READ, RdmaOp.WRITE)
        }
        #: Observers called as fn(request) on every completion.
        self.completion_hooks: List[Callable[[RdmaRequest], None]] = []
        #: Observers called when a dropped request is skipped at dispatch
        #: (it will never complete; schedulers must release its slot).
        self.dropped_hooks: List[Callable[[RdmaRequest], None]] = []
        for op in (RdmaOp.READ, RdmaOp.WRITE):
            engine.spawn(self._dispatch_loop(op), name=f"{name}.{op.value}.dispatch")

    # -- QP management -----------------------------------------------------

    def create_qp(self, name: str, op: RdmaOp, priority: int = 0) -> PhysicalQP:
        qp = PhysicalQP(name, priority)
        qps = self._qps[op]
        qps.append(qp)
        qps.sort(key=lambda q: q.priority)
        # Rebuild the dispatch table (cold path; sort is stable, so
        # within-level order is creation order, as _select always saw).
        groups: List[List[PhysicalQP]] = []
        for queue in qps:
            if groups and groups[-1][0].priority == queue.priority:
                groups[-1].append(queue)
            else:
                groups.append([queue])
        self._groups[op] = groups
        return qp

    def submit(self, qp: PhysicalQP, request: RdmaRequest) -> None:
        """Post a request to a QP and kick the dispatcher."""
        if request.enqueued_at_us is None:
            request.enqueued_at_us = self.engine.now
        tr = self.tracer
        if tr is not None:
            tr.emit(
                QP_ENQ, request.app_name, 0, request.request_id, request.kind.value
            )
        qp.push(request)
        self._kick(request.op)

    def _kick(self, op: RdmaOp) -> None:
        wakeup = self._wakeups[op]
        if wakeup is not None and not wakeup.fired:
            wakeup.succeed()

    # -- dispatch ------------------------------------------------------------

    def _select(self, op: RdmaOp) -> Optional[RdmaRequest]:
        """Strict priority across QPs, round-robin within a priority level."""
        rr_cursor = self._rr_cursor
        for group in self._groups[op]:
            if len(group) == 1:
                queue = group[0]._queue
                if queue:
                    # Same cursor arithmetic the general path applies to a
                    # one-element nonempty list: cursor 0 is used, then 1.
                    rr_cursor[op] = 1
                    return queue.popleft()
                continue
            nonempty = [qp for qp in group if qp._queue]
            if not nonempty:
                continue
            cursor = rr_cursor[op] % len(nonempty)
            rr_cursor[op] = cursor + 1
            return nonempty[cursor]._queue.popleft()
        return None

    def _dispatch_loop(self, op: RdmaOp):
        engine = self.engine
        stats = self.stats
        channel = self.read_channel if op is RdmaOp.READ else self.write_channel
        park = self._park_events[op]
        while True:
            request = self._select(op)
            if request is None:
                self._wakeups[op] = park
                yield park
                self._wakeups[op] = None
                park.reset()
                continue
            if request.dropped:
                stats.dropped_skipped += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        QP_DROP_SKIP,
                        request.app_name,
                        0,
                        request.request_id,
                        request.kind.value,
                    )
                for hook in self.dropped_hooks:
                    hook(request)
                if request.owner is not None:
                    # Pooled request that will never complete: recycle it
                    # after the hooks' unwind has been dispatched.
                    engine._immediate.append(request._recycle_cb)
                continue
            rack = self.rack
            if rack is not None and rack.dead_target(request):
                # Target memory server is dead: the verb never reaches
                # the wire; an error CQE arrives after the propagation
                # delay and the kernel's error hooks take over.
                stats.dead_target_errors += 1
                request.error = True
                request.issued_at_us = engine.now
                engine.call_after(self.base_latency_us, self._complete, request)
                continue
            now = engine.now
            scale = 1.0
            plan = self.fault_plan
            if plan is not None:
                down_until = plan.link_down_until(now)
                if down_until > now:
                    # Link flap: the dispatch loop stalls until the link
                    # is back (nothing can be serialized onto a dead wire).
                    stats.flap_stall_us += down_until - now
                    yield engine.sleep(down_until - now)
                    now = engine.now
                scale = plan.bandwidth_scale(now)
                if scale != 1.0:
                    stats.degraded_transfers += 1
            request.issued_at_us = now
            if self.tracer is not None:
                self.tracer.emit(
                    QP_SERVE, request.app_name, 0, request.request_id,
                    request.kind.value,
                )
            # Verb processing on the NIC, then the wire, then propagation.
            # One sleep covers verb + wire: the wire slot is reserved up
            # front for the instant the verb would have hit it.
            start = now + self.verb_overhead_us
            release = channel.reserve(start, request.size_bytes, scale)
            lag = 0.0
            if rack is not None:
                # Mirror the reservation on the target server's channel
                # at this exact synchronous point, so the server channel
                # sees the uplink's reservation sequence verbatim (the
                # one-server lockstep that keeps lag exactly 0.0).
                lag = rack.wire_lag(request, start, release, scale)
            yield engine.sleep(release - now)
            # Propagation is pipelined: schedule completion off-loop.
            # The request rides in the scheduling entry — no closure.
            # Delay terms are added only when positive, so an unfaulted
            # transfer completes at exactly ``wake + base``.
            delay = self.base_latency_us
            if plan is not None:
                verdict = plan.roll(request)
                if verdict:
                    self._transport_fault(request, verdict, plan)
                    continue
                extra = plan.server_delay_us(engine.now)
                if extra > 0.0:
                    stats.server_delayed += 1
                    delay += extra
            if lag > 0.0:
                delay += lag
            engine.call_after(delay, self._complete, request)

    def _transport_fault(self, request: RdmaRequest, verdict: int, plan) -> None:
        """One served transfer failed: back off and retransmit, or give up.

        A silent wire drop is detected by the retransmission timeout
        (nothing ever arrives); a completion error is detected when the
        error status arrives after the normal propagation delay, so its
        retry starts sooner (``error_retry_scale``).  Past the retry
        budget the request completes as an *error CQE*: the completion
        event still fires (so schedulers free their slots and pooled
        requests recycle), with ``request.error`` telling the kernel to
        recover instead of mapping data in.
        """
        stats = self.stats
        request.retries += 1
        attempt = request.retries
        tr = self.tracer
        if verdict == _FAULT_DROP:
            stats.wire_drops += 1
            if tr is not None:
                tr.emit(
                    WIRE_DROP, request.app_name, 0, request.request_id, attempt
                )
            delay = plan.rto_us(attempt)
        else:
            stats.completion_errors += 1
            if tr is not None:
                tr.emit(
                    WIRE_ERROR, request.app_name, 0, request.request_id, attempt
                )
            delay = (
                self.base_latency_us
                + plan.rto_us(attempt) * plan.config.error_retry_scale
            )
        if attempt > plan.config.transport_retry_limit:
            stats.transport_failures += 1
            request.error = True
            self.engine.call_after(self.base_latency_us, self._complete, request)
            return
        stats.retransmits += 1
        request.retry_stall_us += delay
        self.engine.call_after(delay, self._retransmit, request)

    def _retransmit(self, request: RdmaRequest) -> None:
        """Timer callback: re-enqueue on the head-priority retransmit QP.

        A request marked dropped while waiting out its timeout still goes
        through the queue so the dispatch loop's drop path runs the hooks
        and recycles it — exactly like any other queued dropped request.
        """
        if self.tracer is not None:
            self.tracer.emit(
                RETRANSMIT, request.app_name, 0, request.request_id, request.retries
            )
        qp = self._rtx_qps.get(request.op)
        if qp is None:
            qp = self.create_qp(
                f"{self.name}.{request.op.value}.rtx", request.op, priority=-1
            )
            self._rtx_qps[request.op] = qp
        self.submit(qp, request)

    def _complete(self, request: RdmaRequest) -> None:
        request.completed_at_us = self.engine.now
        stats = self.stats
        if self.tracer is not None:
            self.tracer.emit(
                QP_ERROR_CQE if request.error else QP_COMPLETE,
                request.app_name,
                0,
                request.request_id,
                request.kind.value,
            )
        if request.error:
            # An error CQE: no data landed, so the byte and per-kind
            # counters stay untouched.  Hooks and the completion event
            # still run — schedulers must free the outstanding slot and
            # the kernel must observe the failure.
            stats.error_cqes_delivered += 1
        else:
            if request.op is RdmaOp.READ:
                stats.reads_completed += 1
                stats.read_bytes += request.size_bytes
            else:
                stats.writes_completed += 1
                stats.write_bytes += request.size_bytes
            kind = request.kind
            if kind is RequestKind.DEMAND:
                stats.demand_completed += 1
            elif kind is RequestKind.PREFETCH:
                stats.prefetch_completed += 1
            elif kind is RequestKind.SWAPOUT:
                stats.swapout_completed += 1
            else:
                stats.rehome_completed += 1
        for hook in self.completion_hooks:
            hook(request)
        if request.completion is not None:
            request.completion.succeed(request)
        if request.owner is not None:
            # Recycle strictly after the completion dispatch: the
            # immediate lane runs the event's callbacks first, then this.
            self.engine._immediate.append(request._recycle_cb)
