"""Two-dimensional RDMA scheduling (§4, §5.3).

Requests leave the kernel through per-cgroup virtual queue pairs (VQPs);
a centralized scheduler forwards them onto physical QPs, deciding along
two dimensions:

* **Vertical (across applications)** — weighted fair queuing with a
  virtual clock: each application accrues virtual finish time at a rate
  inversely proportional to its weight, and the pending application with
  the smallest candidate finish tag is served next.  Unconsumed bandwidth
  is naturally redistributed because idle applications' tags don't
  advance past the global virtual clock.

* **Horizontal (within an application)** — demand requests are served
  strictly before prefetch requests, and every prefetch is checked for
  **timeliness** before being forwarded: if its estimated arrival time
  (queueing so far + EWMA service estimate) exceeds the application's
  timeliness threshold (a high percentile of observed prefetch-to-use
  gaps), the request is dropped instead of wasting wire time.  The
  kernel's drop callback unwinds the swap-cache state so a later fault
  re-issues a demand read (§5.3's valid/timestamp protocol).

Swap-outs are subject to fair scheduling only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.kernel.telemetry import Telemetry
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind
from repro.rdma.nic import RNIC
from repro.rdma.vqp import VirtualQP
from repro.sim.engine import Engine

__all__ = ["SchedulerStats", "TwoDimensionalScheduler"]

DropCallback = Callable[[RdmaRequest], None]


@dataclass
class _AppState:
    vqp: VirtualQP
    weight: float = 1.0
    read_finish_tag: float = 0.0
    write_finish_tag: float = 0.0
    #: EWMA of observed read service time (forward → completion), µs.
    service_ewma_us: float = 20.0
    timeliness_floor_us: float = 200.0
    #: Memoized timeliness threshold: the histogram only changes when its
    #: count does, so the (count, floor, ceiling) key makes re-deriving
    #: the percentile between samples free.  Host-side only.
    _timeliness_hist: Optional[object] = None
    _thr_key: tuple = (-1,)
    _thr_value: float = 0.0


@dataclass
class SchedulerStats:
    reads_forwarded: int = 0
    writes_forwarded: int = 0
    prefetches_dropped: int = 0
    demand_forwarded: int = 0
    prefetch_forwarded: int = 0


class TwoDimensionalScheduler:
    """WFQ across cgroups × priority-with-timeliness within each cgroup."""

    def __init__(
        self,
        engine: Engine,
        nic: RNIC,
        telemetry: Optional[Telemetry] = None,
        name: str = "canvas-sched",
        read_window: int = 12,
        write_window: int = 12,
        horizontal: bool = True,
        timeliness_drops: Optional[bool] = None,
        drop_callback: Optional[DropCallback] = None,
        ewma_alpha: float = 0.2,
        timeliness_percentile: float = 90.0,
        timeliness_ceiling_us: float = 800.0,
    ):
        self.engine = engine
        self.nic = nic
        self.telemetry = telemetry
        self.name = name
        self.read_window = read_window
        self.write_window = write_window
        #: When False (isolation-only variant), demand and prefetch are
        #: forwarded FIFO per app and no timeliness drops happen.
        self.horizontal = horizontal
        #: Stale-prefetch dropping can be toggled independently of the
        #: priority split (the Fig. 14 ablation); defaults to following it.
        self.timeliness_drops = (
            horizontal if timeliness_drops is None else timeliness_drops
        )
        self.drop_callback = drop_callback
        self.ewma_alpha = ewma_alpha
        self.timeliness_percentile = timeliness_percentile
        self.timeliness_ceiling_us = timeliness_ceiling_us
        self.stats = SchedulerStats()
        self._apps: Dict[str, _AppState] = {}
        self._virtual_clock_read = 0.0
        self._virtual_clock_write = 0.0
        self._outstanding_reads = 0
        self._outstanding_writes = 0
        self._forward_time: Dict[int, float] = {}
        #: Set while a pump is queued or running; a kick then is a no-op.
        self._read_pending = False
        self._write_pending = False
        self.demand_qp = nic.create_qp(f"{name}.demand", RdmaOp.READ, priority=0)
        self.prefetch_qp = nic.create_qp(f"{name}.prefetch", RdmaOp.READ, priority=1)
        self.write_qp = nic.create_qp(f"{name}.write", RdmaOp.WRITE, priority=0)
        nic.completion_hooks.append(self._on_completion)
        nic.dropped_hooks.append(self._on_dropped_skip)

    # -- registration ------------------------------------------------------

    def register_app(self, app_name: str, weight: float = 1.0) -> VirtualQP:
        if app_name in self._apps:
            raise ValueError(f"app {app_name!r} already registered")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        vqp = VirtualQP(self.engine, app_name)
        self._apps[app_name] = _AppState(vqp=vqp, weight=weight)
        return vqp

    def unregister_app(self, app_name: str) -> None:
        """Drop a departed app from the fair-queuing roster.

        The caller (teardown) guarantees the VQP is drained and no
        request of this app is in flight, so removing the state cannot
        strand a forwarded request: completions look the app up with
        ``.get`` and tolerate absence.
        """
        self._apps.pop(app_name, None)

    def set_weight(self, app_name: str, weight: float) -> None:
        """Retune an app's WFQ share in place (the SLO control knob).

        Finish tags are left untouched — the virtual clock catches the
        app up on its next packet, so a weight change takes effect
        smoothly instead of granting a burst of retroactive credit.
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        state = self._apps.get(app_name)
        if state is not None:
            state.weight = weight

    def weight_of(self, app_name: str) -> float:
        state = self._apps.get(app_name)
        return state.weight if state is not None else 0.0

    def submit(self, app_name: str, request: RdmaRequest) -> None:
        self._apps[app_name].vqp.push(request)
        if request.op is RdmaOp.READ:
            self._kick_read()
        else:
            self._kick_write()

    # -- timeliness --------------------------------------------------------

    def timeout_threshold_us(self, app_name: str) -> float:
        """The staleness bound for this app's in-flight prefetches."""
        state = self._apps[app_name]
        threshold = state.timeliness_floor_us
        if self.telemetry is not None:
            hist = state._timeliness_hist
            if hist is None:
                hist = state._timeliness_hist = self.telemetry.timeliness_hist(
                    app_name
                )
            key = (hist.count, threshold, self.timeliness_ceiling_us)
            if key == state._thr_key:
                return state._thr_value
            if hist.count >= 30:
                threshold = max(
                    threshold, hist.percentile(self.timeliness_percentile)
                )
            # A prefetch this late is never worth wire time, whatever the
            # observed arrival-to-use distribution says.
            value = min(threshold, self.timeliness_ceiling_us)
            state._thr_key = key
            state._thr_value = value
            return value
        return min(threshold, self.timeliness_ceiling_us)

    def estimated_service_us(self, app_name: str) -> float:
        return self._apps[app_name].service_ewma_us

    def _prefetch_is_stale(self, app_name: str, request: RdmaRequest) -> bool:
        enqueued = request.enqueued_at_us
        queued = 0.0 if enqueued is None else self.engine.now - enqueued
        estimate = queued + self.estimated_service_us(app_name)
        return estimate > self.timeout_threshold_us(app_name)

    # -- selection ----------------------------------------------------------

    def _head_read_request(self, state: _AppState) -> Optional[RdmaRequest]:
        """Horizontal dimension: next read for one app, applying drops.

        Heads are read straight off the VQP's per-kind deques (a dropped
        head falls back to the skipping ``peek``); with horizontal
        priority on and a demand pending, the prefetch queue is not
        consulted at all — demand wins regardless.
        """
        vqp = state.vqp
        dq = vqp.demand_q
        pq = vqp.prefetch_q
        while True:
            if dq:
                demand = dq[0]
                if demand.dropped:
                    demand = vqp.peek(RequestKind.DEMAND)
            else:
                demand = None
            if demand is not None:
                if self.horizontal:
                    return demand
                prefetch = vqp.peek(RequestKind.PREFETCH)
                if prefetch is None:
                    return demand
                # FIFO between kinds when horizontal scheduling is disabled:
                # serve whichever was enqueued first; request IDs break
                # same-instant ties in submission order.
                demand_key = (demand.enqueued_at_us, demand.request_id)
                prefetch_key = (prefetch.enqueued_at_us, prefetch.request_id)
                return demand if demand_key <= prefetch_key else prefetch
            if not self.horizontal:
                return vqp.peek(RequestKind.PREFETCH)
            # Only prefetches pending: drop a stale head, then look again
            # from the top, since the drop callback may queue a demand.
            if pq:
                prefetch = pq[0]
                if prefetch.dropped:
                    prefetch = vqp.peek(RequestKind.PREFETCH)
            else:
                prefetch = None
            if prefetch is None:
                return None
            if not (
                self.timeliness_drops
                and self._prefetch_is_stale(vqp.app_name, prefetch)
            ):
                return prefetch
            vqp.pop(RequestKind.PREFETCH)  # pop first, then mark: pop
            prefetch.dropped = True  # skips requests already marked
            self.stats.prefetches_dropped += 1
            if self.drop_callback is not None:
                self.drop_callback(prefetch)
            if prefetch.owner is not None:
                # Dropped before forwarding: it will never reach the
                # NIC, so recycle once the unwind has been dispatched.
                self.engine._immediate.append(prefetch._recycle_cb)

    def _select_fair(self, op: RdmaOp) -> Optional[RdmaRequest]:
        """Vertical dimension: start-time fair queuing with virtual clock.

        Each packet's start tag is max(app's last finish tag, clock); the
        pending app with the smallest start tag is served, the clock
        advances to that start tag, and the app's finish tag becomes
        start + cost/weight.  A continuously backlogged app accumulates
        finish-tag debt proportional to 1/weight, so lighter apps win as
        soon as they have anything pending — no starvation.
        """
        best_name = None
        best_start = None
        best_request = None
        read = op is RdmaOp.READ
        clock = self._virtual_clock_read if read else self._virtual_clock_write
        if read:
            head = self._head_read_request
            for app_name, state in self._apps.items():
                request = head(state)
                if request is None:
                    continue
                last_finish = state.read_finish_tag
                start = last_finish if last_finish > clock else clock
                if best_start is None or start < best_start:
                    best_name, best_start, best_request = app_name, start, request
        else:
            for app_name, state in self._apps.items():
                request = state.vqp.peek(RequestKind.SWAPOUT)
                if request is None:
                    continue
                last_finish = state.write_finish_tag
                start = last_finish if last_finish > clock else clock
                if best_start is None or start < best_start:
                    best_name, best_start, best_request = app_name, start, request
        if best_request is None:
            return None
        state = self._apps[best_name]
        finish = best_start + 1.0 / state.weight
        if op is RdmaOp.READ:
            state.read_finish_tag = finish
            self._virtual_clock_read = best_start
            state.vqp.pop(best_request.kind)
        else:
            state.write_finish_tag = finish
            self._virtual_clock_write = best_start
            state.vqp.pop(RequestKind.SWAPOUT)
        return best_request

    # -- forwarding pumps ----------------------------------------------------

    def _kick_read(self) -> None:
        if not self._read_pending:
            self._read_pending = True
            self.engine.call_after(0.0, self._pump_read)

    def _kick_write(self) -> None:
        if not self._write_pending:
            self._write_pending = True
            self.engine.call_after(0.0, self._pump_write)

    def _pump_read(self) -> None:
        """Forward reads until the window is full or none is selectable.

        Forwarding takes no simulated time, so this is an immediate-lane
        callback rather than a process.  A drop callback that resubmits
        during selection is picked up by this same pump.
        """
        while self._outstanding_reads < self.read_window:
            request = self._select_fair(RdmaOp.READ)
            if request is None:
                break
            self._forward_time[request.request_id] = self.engine.now
            self._outstanding_reads += 1
            self.stats.reads_forwarded += 1
            if request.kind is RequestKind.DEMAND:
                self.stats.demand_forwarded += 1
                self.nic.submit(self.demand_qp, request)
            else:
                self.stats.prefetch_forwarded += 1
                self.nic.submit(self.prefetch_qp, request)
        self._read_pending = False

    def _pump_write(self) -> None:
        while self._outstanding_writes < self.write_window:
            request = self._select_fair(RdmaOp.WRITE)
            if request is None:
                break
            self._forward_time[request.request_id] = self.engine.now
            self._outstanding_writes += 1
            self.stats.writes_forwarded += 1
            self.nic.submit(self.write_qp, request)
        self._write_pending = False

    # -- completion hook ----------------------------------------------------

    def _on_dropped_skip(self, request: RdmaRequest) -> None:
        """A forwarded request was dropped before service: free its slot."""
        forwarded_at = self._forward_time.pop(request.request_id, None)
        if forwarded_at is None:
            return
        if request.op is RdmaOp.READ:
            self._outstanding_reads -= 1
            self._kick_read()
        else:
            self._outstanding_writes -= 1
            self._kick_write()

    def _on_completion(self, request: RdmaRequest) -> None:
        forwarded_at = self._forward_time.pop(request.request_id, None)
        if forwarded_at is None:
            return  # not ours (other systems may share the NIC in tests)
        if request.op is RdmaOp.READ:
            self._outstanding_reads -= 1
            state = self._apps.get(request.app_name)
            if state is not None and not request.error:
                # Error CQEs free the slot but must not feed the service
                # EWMA: their latency is retry backoff, not service time,
                # and would poison the timeliness estimate.
                service = self.engine.now - forwarded_at
                state.service_ewma_us += self.ewma_alpha * (
                    service - state.service_ewma_us
                )
            self._kick_read()
        else:
            self._outstanding_writes -= 1
            self._kick_write()
