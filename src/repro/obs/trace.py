"""Simulation-clock tracing: a bounded ring buffer of typed records.

Tracepoints sit at the existing seams of the swap path — fault
begin/end, RDMA enqueue/serve/complete, prefetch propose/issue/hit/
cancel, reclaim/writeback, swap-entry alloc/free — and cost a single
``is not None`` check when tracing is off (the default).  When on, each
record is one tuple ``(t_us, kind, app, thread, key, arg)`` appended to
a ring buffer: no string formatting, no engine interaction, no RNG, so
tracing never perturbs simulated results.

Exports:

* :func:`to_chrome_trace` — Chrome/Perfetto ``trace_event`` JSON (load
  the dump in https://ui.perfetto.dev or ``chrome://tracing``).
* :func:`summarize_trace` — per-cgroup timeline summaries (fault
  stalls, RDMA queueing/service, prefetch and reclaim activity).

The companion :mod:`repro.obs.check` runs causality lints over the raw
records.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "TraceBuffer",
    "TraceRecord",
    "KIND_NAMES",
    "to_chrome_trace",
    "dump_chrome_trace",
    "summarize_trace",
]

#: One trace record: (t_us, kind, app, thread, key, arg).  ``key`` is a
#: VPN for fault/prefetch/reclaim records, a request id for RDMA
#: records, an entry id for swap-entry records, and a pool serial for
#: request-pool records; ``arg`` is per-kind extra payload.
TraceRecord = Tuple[float, int, str, int, int, object]

# -- record kinds ----------------------------------------------------------
# Fault path (kernel/swap_system.py); key = vpn.
FAULT_BEGIN = 0  # arg: 1 if write access else 0
FAULT_END = 1  # arg: stall_us for this fault
FAULT_PARK = 2  # thread blocks on in-flight I/O for key=vpn
FAULT_WAKE = 3  # the parked thread resumed
DEMAND_ISSUE = 4  # demand swap-in submitted; arg: request_id
DEMAND_RETRY = 5  # demand read reissued after an error CQE; arg: retry no.
WB_RETRY = 6  # writeback reissued after an error CQE; arg: retry no.

# Prefetch (prefetch/*, kernel/swap_system.py, core/canvas.py); key = vpn.
PF_PROPOSE = 7  # arg: number of VPNs proposed for this fault
PF_ISSUE = 8  # prefetch read submitted; arg: request_id
PF_HIT = 9  # fault landed on a ready prefetched page
PF_LATE = 10  # fault blocked on a still-in-flight prefetch
PF_CANCEL = 11  # prefetch cancelled after an error CQE
PF_DROP = 12  # prefetch dropped; arg: "stale" (waiter) or "sched" (queue)

# Reclaim / writeback (kernel/swap_system.py, mem/lru.py); key = vpn.
EVICT = 13  # LRU victim selected and unmapped
CLEAN_DROP = 14  # clean page dropped without writeback (kept entry)
WB_ISSUE = 15  # writeback submitted; arg: request_id
WB_COMPLETE = 16  # writeback completion processed by the kernel
WB_RESCUE = 17  # page re-faulted mid-writeback and mapped back in
LRU_DEMOTE = 18  # active->inactive demotions; arg: count (key = 0)

# Swap entries (swap/allocator.py, kernel/swap_system.py); key = entry_id.
ENTRY_ALLOC = 19  # entry bound to a page for writeback
ENTRY_FREE = 20  # entry returned to its partition's free pool

# RDMA / NIC (rdma/nic.py); key = request_id, arg = request kind value.
QP_ENQ = 21  # request pushed into a queue pair
QP_SERVE = 22  # NIC starts serving the request (wire reserved)
QP_COMPLETE = 23  # data landed, completion dispatched
QP_ERROR_CQE = 24  # completion delivered as an error CQE
QP_DROP_SKIP = 25  # dropped request skipped at dispatch
WIRE_DROP = 26  # injected silent wire drop (fault plan)
WIRE_ERROR = 27  # injected completion error (fault plan)
RETRANSMIT = 28  # request re-enqueued on the rtx QP; arg: attempt no.

# Request pool (kernel/swap_system.py, rdma/message.py); key = pool serial.
REQ_ACQUIRE = 29  # pooled request leaves the pool; arg: request_id
REQ_RECYCLE = 30  # pooled request returned to the pool; arg: request_id

# Batched resident fast path (kernel/swap_system.py, mem/lru.py).
BATCH_ENTER = 31  # consume_batch entered; key = start index, arg = batch len
BATCH_EXIT = 32  # consume_batch returned; key = run length, arg = outcome
LRU_EPOCH = 33  # generation-stamp epoch renormalized; key = pages, arg = old gen

# Coalesced fault admission (kernel/swap_system.py); key = first vpn.
FAULT_GROUP_BEGIN = 34  # group admitted; arg: planned run length
FAULT_GROUP_END = 35  # group done; arg: members actually faulted

# Grouped reclaim (kernel/swap_system.py _evict_many); key unused (0).
RECLAIM_GROUP_BEGIN = 36  # batch started; arg: planned batch size
RECLAIM_GROUP_END = 37  # batch done; arg: pages actually evicted

# Rack-scale disaggregation (cluster.py); key = server_id unless noted.
RACK_SERVER_DEAD = 38  # memory server failed; arg: entries homed there
RACK_SERVER_DRAIN = 39  # drain started; arg: entries homed there
RACK_REHOME = 40  # page re-homed; key = old entry id, arg = new server id
RACK_MIGRATE = 41  # migration transfer resolved; key = entry id, arg = op
RACK_RETIRE = 42  # entry withdrawn; key = entry id, arg = server id

# App lifecycle (kernel/swap_system.py); key = mapped pages at the event.
APP_REGISTER = 43  # app registered with the swap system
APP_UNREGISTER = 44  # teardown complete; arg: entries freed by the sweep

#: Thread lane for grouped-reclaim trace records.  kswapd shares core 0
#: with direct-reclaiming fault threads, so its grouped rounds emit on
#: this sentinel lane instead — the reclaim-group-pairing lint can then
#: count a group's EVICTs without catching concurrent direct-reclaim
#: evictions interleaved at the same instants.
RECLAIM_LANE = -1

#: Perfetto tid the sentinel lane renders on.  Chrome trace viewers sort
#: and colour threads by tid and a negative tid renders as a bogus
#: pseudo-thread, so the exporter remaps RECLAIM_LANE records onto this
#: dedicated positive lane (kept below the RDMA lanes at 1000+) with a
#: proper thread name instead of passing -1 through.
KSWAPD_LANE = 900

KIND_NAMES = {
    FAULT_BEGIN: "fault_begin",
    FAULT_END: "fault_end",
    FAULT_PARK: "fault_park",
    FAULT_WAKE: "fault_wake",
    DEMAND_ISSUE: "demand_issue",
    DEMAND_RETRY: "demand_retry",
    WB_RETRY: "wb_retry",
    PF_PROPOSE: "pf_propose",
    PF_ISSUE: "pf_issue",
    PF_HIT: "pf_hit",
    PF_LATE: "pf_late",
    PF_CANCEL: "pf_cancel",
    PF_DROP: "pf_drop",
    EVICT: "evict",
    CLEAN_DROP: "clean_drop",
    WB_ISSUE: "wb_issue",
    WB_COMPLETE: "wb_complete",
    WB_RESCUE: "wb_rescue",
    LRU_DEMOTE: "lru_demote",
    ENTRY_ALLOC: "entry_alloc",
    ENTRY_FREE: "entry_free",
    QP_ENQ: "qp_enq",
    QP_SERVE: "qp_serve",
    QP_COMPLETE: "qp_complete",
    QP_ERROR_CQE: "qp_error_cqe",
    QP_DROP_SKIP: "qp_drop_skip",
    WIRE_DROP: "wire_drop",
    WIRE_ERROR: "wire_error",
    RETRANSMIT: "retransmit",
    REQ_ACQUIRE: "req_acquire",
    REQ_RECYCLE: "req_recycle",
    BATCH_ENTER: "batch_enter",
    BATCH_EXIT: "batch_exit",
    LRU_EPOCH: "lru_epoch",
    FAULT_GROUP_BEGIN: "fault_group_begin",
    FAULT_GROUP_END: "fault_group_end",
    RECLAIM_GROUP_BEGIN: "reclaim_group_begin",
    RECLAIM_GROUP_END: "reclaim_group_end",
    RACK_SERVER_DEAD: "rack_server_dead",
    RACK_SERVER_DRAIN: "rack_server_drain",
    RACK_REHOME: "rack_rehome",
    RACK_MIGRATE: "rack_migrate",
    RACK_RETIRE: "rack_retire",
    APP_REGISTER: "app_register",
    APP_UNREGISTER: "app_unregister",
}


class TraceBuffer:
    """A bounded ring of :data:`TraceRecord` tuples on the sim clock.

    ``emit`` is the only method on the hot path; it reads the engine
    clock and appends one tuple.  Once ``capacity`` records exist the
    ring wraps, dropping the oldest records (``truncated`` turns True);
    the invariant checker relaxes its missing-predecessor rules on
    truncated traces.
    """

    def __init__(self, engine, capacity: int = 1_000_000):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self._records: List[TraceRecord] = []
        self._cursor = 0
        self.emitted = 0

    def emit(self, kind: int, app: str, thread: int, key: int, arg=0) -> None:
        record = (self.engine.now, kind, app, thread, key, arg)
        records = self._records
        if len(records) < self.capacity:
            records.append(record)
        else:
            records[self._cursor] = record
            self._cursor += 1
            if self._cursor == self.capacity:
                self._cursor = 0
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._records)

    @property
    def truncated(self) -> bool:
        """True when the ring wrapped and old records were dropped."""
        return self.emitted > len(self._records)

    def records(self) -> List[TraceRecord]:
        """All retained records in chronological (emission) order."""
        records = self._records
        if self.emitted <= self.capacity:
            return list(records)
        return records[self._cursor :] + records[: self._cursor]

    # A trace rides inside pickled ExperimentResults (parallel runner,
    # disk cache); the engine reference cannot cross the boundary.
    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "records": self.records(),
            "emitted": self.emitted,
        }

    def __setstate__(self, state: dict) -> None:
        self.engine = None
        self.capacity = state["capacity"]
        self._records = state["records"]
        self._cursor = 0  # records() unrolled the ring before pickling
        self.emitted = state["emitted"]

    def summarize(self) -> Dict[str, Dict[str, float]]:
        return summarize_trace(self.records())


# -- Chrome/Perfetto export ------------------------------------------------

#: Synthetic tid lanes for RDMA slices (spread by request id so
#: overlapping transfers render side by side instead of stacking).
_RDMA_LANE_BASE = 1000
_RDMA_LANES = 32

_INSTANT_KINDS = {
    FAULT_PARK,
    FAULT_WAKE,
    DEMAND_ISSUE,
    DEMAND_RETRY,
    WB_RETRY,
    PF_PROPOSE,
    PF_ISSUE,
    PF_HIT,
    PF_LATE,
    PF_CANCEL,
    PF_DROP,
    EVICT,
    CLEAN_DROP,
    WB_ISSUE,
    WB_COMPLETE,
    WB_RESCUE,
    LRU_DEMOTE,
    QP_DROP_SKIP,
    WIRE_DROP,
    WIRE_ERROR,
    RETRANSMIT,
    BATCH_ENTER,
    BATCH_EXIT,
    LRU_EPOCH,
    FAULT_GROUP_BEGIN,
    FAULT_GROUP_END,
    RECLAIM_GROUP_BEGIN,
    RECLAIM_GROUP_END,
    APP_REGISTER,
    APP_UNREGISTER,
}


def to_chrome_trace(records: List[TraceRecord]) -> dict:
    """Records → a Chrome ``trace_event`` JSON object (dict).

    Mapping: each app becomes a process (pid); faults render as B/E
    duration slices on their faulting thread's track; RDMA transfers
    render as complete ("X") slices — queueing from enqueue to serve,
    service from serve to completion — on synthetic per-request lanes;
    everything else is a thread-scoped instant event.
    """
    pids: Dict[str, int] = {}
    events: List[dict] = []
    kswapd_named: set = set()

    def pid_of(app: str) -> int:
        pid = pids.get(app)
        if pid is None:
            pid = pids[app] = len(pids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": app or "global"},
                }
            )
        return pid

    def kswapd_lane(pid: int) -> int:
        if pid not in kswapd_named:
            kswapd_named.add(pid)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": KSWAPD_LANE,
                    "args": {"name": "kswapd (grouped reclaim)"},
                }
            )
        return KSWAPD_LANE

    # RDMA lifecycle state: request id -> (enqueue_t, serve_t).
    enq_t: Dict[int, float] = {}
    serve_t: Dict[int, float] = {}

    for t, kind, app, thread, key, arg in records:
        pid = pid_of(app)
        if kind == FAULT_BEGIN:
            events.append(
                {
                    "ph": "B",
                    "name": "fault",
                    "cat": "fault",
                    "pid": pid,
                    "tid": thread,
                    "ts": t,
                    "args": {"vpn": key, "write": arg},
                }
            )
        elif kind == FAULT_END:
            events.append(
                {
                    "ph": "E",
                    "name": "fault",
                    "cat": "fault",
                    "pid": pid,
                    "tid": thread,
                    "ts": t,
                    "args": {"vpn": key},
                }
            )
        elif kind == QP_ENQ:
            enq_t[key] = t
        elif kind == QP_SERVE:
            lane = _RDMA_LANE_BASE + key % _RDMA_LANES
            queued_since = enq_t.pop(key, None)
            if queued_since is not None and t > queued_since:
                events.append(
                    {
                        "ph": "X",
                        "name": f"queued:{arg}",
                        "cat": "rdma",
                        "pid": pid,
                        "tid": lane,
                        "ts": queued_since,
                        "dur": t - queued_since,
                        "args": {"req": key},
                    }
                )
            serve_t[key] = t
        elif kind in (QP_COMPLETE, QP_ERROR_CQE):
            lane = _RDMA_LANE_BASE + key % _RDMA_LANES
            served_since = serve_t.pop(key, None)
            if served_since is not None:
                events.append(
                    {
                        "ph": "X",
                        "name": f"rdma:{arg}"
                        + (":error" if kind == QP_ERROR_CQE else ""),
                        "cat": "rdma",
                        "pid": pid,
                        "tid": lane,
                        "ts": served_since,
                        "dur": max(t - served_since, 0.001),
                        "args": {"req": key},
                    }
                )
        elif kind in _INSTANT_KINDS:
            if kind in (WIRE_DROP, WIRE_ERROR, RETRANSMIT, QP_DROP_SKIP):
                lane = _RDMA_LANE_BASE + key % _RDMA_LANES
            elif thread == RECLAIM_LANE:
                # Grouped-reclaim sentinel: render on the named kswapd
                # lane instead of a bogus tid=-1 pseudo-thread.
                lane = kswapd_lane(pid)
            else:
                lane = thread
            events.append(
                {
                    "ph": "i",
                    "name": KIND_NAMES[kind],
                    "cat": "swap",
                    "pid": pid,
                    "tid": lane,
                    "ts": t,
                    "s": "t",
                    "args": {"key": key, "arg": arg},
                }
            )
        # REQ_ACQUIRE/REQ_RECYCLE and ENTRY_ALLOC/ENTRY_FREE are checker
        # fodder; they would only add noise to the visual timeline.
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(path: str, records: List[TraceRecord]) -> None:
    """Write the Chrome ``trace_event`` JSON for ``records`` to ``path``."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(records), fh)


# -- per-cgroup timeline summaries ----------------------------------------


def summarize_trace(records: List[TraceRecord]) -> Dict[str, Dict[str, float]]:
    """Per-app timeline summary: counts plus derived stall/service sums.

    Returns ``{app: {metric: value}}``.  Fault stalls come from paired
    begin/end records; RDMA queueing and service times from paired
    enqueue/serve/complete records, attributed to the requesting app.
    """
    summaries: Dict[str, Dict[str, float]] = {}
    fault_open: Dict[Tuple[str, int], float] = {}
    enq_t: Dict[int, float] = {}
    serve_t: Dict[int, float] = {}

    def summary(app: str) -> Dict[str, float]:
        entry = summaries.get(app)
        if entry is None:
            entry = summaries[app] = {
                "first_us": None,
                "last_us": 0.0,
                "faults": 0,
                "fault_stall_us": 0.0,
                "demand_issued": 0,
                "demand_retries": 0,
                "prefetch_issued": 0,
                "prefetch_hits": 0,
                "prefetch_late": 0,
                "prefetch_drops": 0,
                "prefetch_cancelled": 0,
                "evictions": 0,
                "clean_drops": 0,
                "writebacks": 0,
                "writeback_retries": 0,
                "rescues": 0,
                "rdma_queue_us": 0.0,
                "rdma_service_us": 0.0,
                "rdma_completed": 0,
                "error_cqes": 0,
                "retransmits": 0,
                "wire_faults": 0,
                "batch_runs": 0,
                "lru_epochs": 0,
                "fault_groups": 0,
                "reclaim_groups": 0,
                # Background-reclaim share of the totals above: records
                # emitted on the grouped-reclaim sentinel lane, kept out
                # of any per-thread attribution.  evictions/clean_drops/
                # writebacks stay whole-app totals; these break out how
                # much of each came from kswapd's grouped rounds.
                "kswapd_evictions": 0,
                "kswapd_clean_drops": 0,
                "kswapd_writebacks": 0,
                "app_registers": 0,
                "app_unregisters": 0,
            }
        return entry

    counters = {
        DEMAND_ISSUE: "demand_issued",
        DEMAND_RETRY: "demand_retries",
        PF_ISSUE: "prefetch_issued",
        PF_HIT: "prefetch_hits",
        PF_LATE: "prefetch_late",
        PF_DROP: "prefetch_drops",
        PF_CANCEL: "prefetch_cancelled",
        EVICT: "evictions",
        CLEAN_DROP: "clean_drops",
        WB_ISSUE: "writebacks",
        WB_RETRY: "writeback_retries",
        WB_RESCUE: "rescues",
        QP_ERROR_CQE: "error_cqes",
        RETRANSMIT: "retransmits",
        WIRE_DROP: "wire_faults",
        WIRE_ERROR: "wire_faults",
        BATCH_EXIT: "batch_runs",
        LRU_EPOCH: "lru_epochs",
        FAULT_GROUP_BEGIN: "fault_groups",
        RECLAIM_GROUP_BEGIN: "reclaim_groups",
        APP_REGISTER: "app_registers",
        APP_UNREGISTER: "app_unregisters",
    }

    kswapd_counters = {
        EVICT: "kswapd_evictions",
        CLEAN_DROP: "kswapd_clean_drops",
        WB_ISSUE: "kswapd_writebacks",
    }

    for t, kind, app, thread, key, arg in records:
        entry = summary(app)
        if entry["first_us"] is None:
            entry["first_us"] = t
        entry["last_us"] = t
        if thread == RECLAIM_LANE:
            name = kswapd_counters.get(kind)
            if name is not None:
                entry[name] += 1
        if kind == FAULT_BEGIN:
            entry["faults"] += 1
            fault_open[(app, thread)] = t
        elif kind == FAULT_END:
            begin = fault_open.pop((app, thread), None)
            if begin is not None:
                entry["fault_stall_us"] += t - begin
        elif kind == QP_ENQ:
            enq_t[key] = t
        elif kind == QP_SERVE:
            begin = enq_t.pop(key, None)
            if begin is not None:
                entry["rdma_queue_us"] += t - begin
            serve_t[key] = t
        elif kind == QP_COMPLETE:
            begin = serve_t.pop(key, None)
            if begin is not None:
                entry["rdma_service_us"] += t - begin
            entry["rdma_completed"] += 1
        else:
            name = counters.get(kind)
            if name is not None:
                entry[name] += 1
            if kind == QP_ERROR_CQE:
                serve_t.pop(key, None)
    for entry in summaries.values():
        if entry["first_us"] is None:
            entry["first_us"] = 0.0
    return summaries
