"""The swap system: fault handling, reclaim, writeback, prefetch issuing.

:class:`BaseSwapSystem` implements the remote-access data path of §2:

* page fault → swap-cache lookup → demand swap-in over RDMA,
* prefetch issuing driven by a pluggable prefetcher,
* cgroup frame accounting with direct reclaim and a kswapd analogue,
* eviction → swap-entry allocation (the contended step) → RDMA writeback.

Subclasses configure *policy* through hooks: which swap cache and
allocator serve an app (shared in Linux, per-cgroup in Canvas), how RDMA
requests are routed (single QP, Fastswap's sync/async split, Canvas's
VQP + two-dimensional scheduler), what happens on map-in/eviction (entry
keeping vs Canvas's reservation FSM), and how a thread waits on an
in-flight prefetch (Canvas's stale-prefetch drop).

Frame-accounting invariant: every physically present page — resident or
sitting in a swap cache — holds exactly one charged frame in its owner's
pool.  Charges happen when a swap-in is issued or a page is faulted in;
uncharges happen when a swap-cache page is released or a writeback
completes and drops the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.kernel.cgroup import AppContext
from repro.kernel.telemetry import Telemetry
from repro.mem.page import Page
from repro.obs.trace import (
    APP_REGISTER,
    APP_UNREGISTER,
    BATCH_ENTER,
    BATCH_EXIT,
    CLEAN_DROP,
    DEMAND_ISSUE,
    DEMAND_RETRY,
    EVICT,
    FAULT_BEGIN,
    FAULT_END,
    FAULT_GROUP_BEGIN,
    FAULT_GROUP_END,
    FAULT_PARK,
    FAULT_WAKE,
    PF_CANCEL,
    RECLAIM_GROUP_BEGIN,
    RECLAIM_GROUP_END,
    RECLAIM_LANE,
    PF_HIT,
    PF_ISSUE,
    PF_LATE,
    PF_PROPOSE,
    REQ_ACQUIRE,
    WB_COMPLETE,
    WB_ISSUE,
    WB_RESCUE,
    WB_RETRY,
)
from repro.prefetch.base import Prefetcher
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind, acquire_request
from repro.rdma.nic import RNIC
from repro.sim.engine import DEBUG_EVENT_NAMES, Engine, Event
from repro.swap.allocator import EntryAllocator
from repro.swap.entry import SwapEntry
from repro.swap.partition import SwapPartition
from repro.swap.swap_cache import SwapCache

__all__ = [
    "SwapSystemConfig",
    "BaseSwapSystem",
    "LinuxSwapSystem",
    "BATCH_FLUSH",
    "BATCH_FAULT",
    "BATCH_END",
]

#: ``consume_batch`` outcomes: the consumed run ended because the CPU
#: accumulator crossed the flush threshold, because the next access
#: faults, or because the batch is exhausted.
BATCH_FLUSH, BATCH_FAULT, BATCH_END = 0, 1, 2


@dataclass
class SwapSystemConfig:
    """Timing and policy knobs shared by all swap-system variants."""

    #: Trap + PTE walk + swap-cache lookup cost per fault.
    fault_overhead_us: float = 1.5
    #: Cost of mapping a cached page into the page table.
    map_in_cost_us: float = 0.8
    #: Linux 5.5 keeps swap entries of clean pages so they can be dropped
    #: without writeback (Appendix B).
    entry_keeping: bool = True
    #: Entries are only kept while partition occupancy is below this
    #: threshold (Appendix B: "entry keeping starts when the percentage
    #: of available swap entries exceeds this threshold").
    entry_keep_max_occupancy: float = 0.5
    #: Background reclaim batch (pages evicted per kswapd round).  Small
    #: batches keep eviction windows short: large batches pile up on the
    #: allocator lock and lengthen the window in which a warm page can be
    #: re-faulted mid-writeback.
    kswapd_batch: int = 4
    #: Upper bound on outstanding prefetch reads per application.
    max_inflight_prefetches: int = 64
    #: Swap cache capacity for the shared baseline cache (pages).
    shared_cache_pages: int = 16384
    #: Kernel-level reissues of one logical transfer after error CQEs
    #: (each reissue gets a fresh transport retry budget).  Past this the
    #: fault is surfaced as a hard error — the fabric is persistently
    #: failing and graceful degradation is no longer meaningful.
    max_kernel_retries: int = 16


def _needs_writeback(page: Page) -> bool:
    """Batch-cut predicate for reclaim victim selection.

    A clean victim with a kept swap entry is dropped instantaneously (no
    yields), so any run of them plus the *first* writeback-needing
    victim — dirty, or never swapped out — can be selected up front: no
    LRU mutation can land between those pops.  That first writeback
    member yields in entry allocation, after which the LRU may have been
    mutated by concurrent faults, so victims beyond it must be selected
    after the yield: ``select_victims`` cuts the batch here, so a round
    holds at most one writeback, its last victim.
    """
    return page.dirty or page.swap_entry is None


class BaseSwapSystem:
    """Mechanism layer of the swap path; policies come from subclasses."""

    def __init__(
        self,
        engine: Engine,
        nic: RNIC,
        telemetry: Optional[Telemetry] = None,
        config: Optional[SwapSystemConfig] = None,
        name: str = "swap",
    ):
        self.engine = engine
        self.nic = nic
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.config = config if config is not None else SwapSystemConfig()
        self.name = name
        self.apps: Dict[str, AppContext] = {}
        self._inflight: Dict[Page, Event] = {}
        self._inflight_req: Dict[Page, RdmaRequest] = {}
        self._kswapd_kick: Dict[str, Optional[Event]] = {}
        #: Reusable kswapd park event per app (reset after each wakeup).
        self._kswapd_park: Dict[str, Event] = {}
        #: kswapd Process handles, so teardown can wait for a clean exit.
        self._kswapd_proc: Dict[str, object] = {}
        #: Teardown flags: ``_kswapd_loop`` re-checks its app's flag at
        #: the top of every round and exits once it turns True.  A plain
        #: host-side dict read, so runs that never unregister stay
        #: bit-identical to the flagless loop.
        self._kswapd_stop: Dict[str, bool] = {}
        #: Free list of recycled RdmaRequests (and their completion
        #: events); refilled via the engine's immediate lane strictly
        #: after each completion dispatch or dropped-request unwind.
        self._request_pool: List[RdmaRequest] = []
        #: Observers called as fn(app_name, thread_id, vpn, start_us,
        #: end_us) when a fault finishes (tracing / analysis hooks).
        self.fault_hooks: list = []
        #: Optional :class:`repro.faults.FaultPlan`, attached by the
        #: harness alongside ``nic.fault_plan``; subsystems the kernel
        #: builds later (e.g. demand-driven remote memory) read it here.
        self.fault_plan = None
        #: Optional :class:`repro.cluster.Rack` (multi-server fabric),
        #: attached by the harness.  The error-CQE hooks consult it to
        #: rebind reads/writebacks whose home server died; None keeps
        #: the single-endpoint code paths untouched.
        self.rack = None
        #: Optional :class:`repro.obs.TraceBuffer`; attach via
        #: :meth:`attach_tracer`.  Every tracepoint in the swap path is
        #: one ``is not None`` check while this stays unset, and no
        #: tracepoint touches engine scheduling or RNG state, so tracing
        #: never changes simulated results.
        self.trace = None
        self.nic.completion_hooks.append(self.telemetry.on_rdma_completion)

    def attach_tracer(self, tracer) -> None:
        """Wire a :class:`repro.obs.TraceBuffer` through the stack.

        Covers the NIC, the swap-entry allocator(s), and the per-app
        LRUs; apps registered after this call pick the tracer up in
        :meth:`register_app`.
        """
        self.trace = tracer
        self.nic.tracer = tracer
        self._attach_tracer_extra(tracer)
        if self.rack is not None:
            self.rack.tracer = tracer
        for app in self.apps.values():
            app.lru.tracer = tracer

    def _attach_tracer_extra(self, tracer) -> None:
        """Subclass hook: propagate the tracer into subsystem objects."""

    # ------------------------------------------------------------------
    # Policy hooks (overridden by Linux / Fastswap / Canvas variants)
    # ------------------------------------------------------------------

    def _setup_app(self, app: AppContext) -> None:
        """Create/bind per-app swap resources.  Subclass responsibility."""
        raise NotImplementedError

    def _cache_for(self, app: AppContext, page: Page) -> SwapCache:
        raise NotImplementedError

    def _allocator_for(self, app: AppContext, page: Page) -> EntryAllocator:
        raise NotImplementedError

    def _prefetcher_for(self, app: AppContext) -> Prefetcher:
        raise NotImplementedError

    def _submit(self, app: AppContext, request: RdmaRequest) -> None:
        """Post one request on the path its op and kind select.

        The one submission hook: each policy routes reads, prefetches
        and writebacks to its own queues.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Request pooling
    # ------------------------------------------------------------------

    def _acquire_request(
        self,
        op: RdmaOp,
        kind: RequestKind,
        app_name: str,
        entry: SwapEntry,
        page: Page,
    ) -> RdmaRequest:
        """A pooled request (:func:`repro.rdma.message.acquire_request`)."""
        request = acquire_request(self, op, kind, app_name, entry, page)
        if self.trace is not None:
            self.trace.emit(
                REQ_ACQUIRE, app_name, 0, request.pool_serial, request.request_id
            )
        return request

    def _request_completed(self, request: RdmaRequest) -> None:
        """Bound completion dispatch (invoked via ``request.__call__``)."""
        app = self.apps[request.app_name]
        if request.retry_stall_us > 0.0:
            # Transport retransmissions delayed this completion; fold the
            # backoff time into the cgroup's retry-stall account so
            # reports can separate it from queueing stalls.
            app.stats.retry_stall_us += request.retry_stall_us
        if request.error:
            app.stats.error_cqes += 1
            if request.op is RdmaOp.WRITE:
                self._on_writeback_error(app, request)
            else:
                self._on_read_error(app, request)
            return
        if request.op is RdmaOp.WRITE:
            self._on_writeback_complete(app, request)
        else:
            self._on_read_complete(app, request)

    def _alloc_entry(
        self, app: AppContext, page: Page, core_id: int
    ) -> Generator:
        """Obtain a swap entry for a swap-out (the contended step)."""
        allocator = self._allocator_for(app, page)
        start = self.engine.now
        try:
            entry = yield from allocator.allocate(core_id)
        except RuntimeError:
            if allocator.rack is None:
                raise
            # A dead or drained server's entries were retired and
            # nothing replaced them: register one more chunk, as
            # ``Rack.rebind`` does.
            allocator.partition.grow(allocator.rack.config.chunk_entries)
            entry = yield from allocator.allocate(core_id)
        app.stats.alloc_stall_us += self.engine.now - start
        self.telemetry.alloc_rate(app.name).record(self.engine.now)
        return entry

    def _obtain_writeback_entry(
        self, app: AppContext, page: Page, core_id: int
    ) -> Generator:
        """Entry used to write ``page`` out.

        Base behaviour: a dirty page with a stale kept entry releases it
        first ("once a page becomes dirty, its swap entry must be
        immediately released", Appendix B), then allocates a fresh one
        through the lock-protected path.  Canvas overrides this to reuse
        the page's reserved entry lock-free (§5.1).
        """
        if page.swap_entry is not None:
            self._release_entry(app, page, page.swap_entry)
            page.swap_entry = None
        entry = yield from self._alloc_entry(app, page, core_id)
        return entry

    def _release_entry(self, app: AppContext, page: Page, entry: SwapEntry) -> None:
        self._allocator_for(app, page).free(entry)

    def _on_mapped(self, app: AppContext, page: Page) -> None:
        """Entry policy when a page is mapped in from the swap cache."""
        entry = page.swap_entry
        if entry is None:
            return
        if self.config.entry_keeping:
            allocator = self._allocator_for(app, page)
            if allocator.occupancy < self.config.entry_keep_max_occupancy:
                return  # keep the entry: a clean re-eviction is free
        self._release_entry(app, page, entry)
        page.swap_entry = None

    def _on_evicted(self, app: AppContext, page: Page) -> None:
        """State hook at eviction time (Canvas FSM uses this)."""

    def _post_prefetch_hook(
        self,
        app: AppContext,
        thread_id: int,
        vpn: int,
        issued: int,
        prefetched_hit: bool = False,
    ) -> None:
        """Called after kernel-tier prefetching (Canvas two-tier uses it)."""

    def _wait_inflight(
        self, app: AppContext, page: Page, thread_id: int, event: Event
    ) -> Generator:
        """Block until the page's outstanding I/O finishes."""
        yield event

    # ------------------------------------------------------------------
    # Registration and setup
    # ------------------------------------------------------------------

    def register_app(self, app: AppContext) -> None:
        if app.name in self.apps:
            raise ValueError(f"app {app.name!r} already registered")
        self.apps[app.name] = app
        self._setup_app(app)
        if self.trace is not None:
            app.lru.tracer = self.trace
        # Teach the app's prefetcher the valid address ranges so stride
        # proposals can be clamped to the faulting VMA (readahead never
        # crosses a mapping boundary).
        prefetcher = self._prefetcher_for(app)
        if prefetcher is not None:
            for vma in app.space.vmas:
                prefetcher.note_region(app.name, vma.start_vpn, vma.end_vpn)
        self._kswapd_kick[app.name] = None
        self._kswapd_park[app.name] = Event(self.engine, f"kswapd.{app.name}.kick")
        self._kswapd_stop[app.name] = False
        self._kswapd_proc[app.name] = self.engine.spawn(
            self._kswapd_loop(app), name=f"kswapd.{app.name}"
        )
        if self.trace is not None:
            self.trace.emit(APP_REGISTER, app.name, 0, len(app.space.pages), 0)

    def prepopulate(self, app: AppContext, resident_fraction: float) -> None:
        """Install the initial memory layout: the first ``resident_fraction``
        of each app's pages are local; the rest start swapped out with
        entries already holding their data (setup costs no simulated time).

        Shared pages whose flag home is another space keep that owner's
        layout: the owner already charged them or gave them an entry.
        """
        space = app.space
        pages = [space.pages[vpn] for vpn in sorted(space.pages)]
        if space.has_foreign_pages:
            pages = [page for page in pages if page.flag_space is space]
        n_resident = int(len(pages) * resident_fraction)
        n_resident = min(n_resident, app.pool.capacity_pages)
        for index, page in enumerate(pages):
            if index < n_resident:
                if not app.pool.try_charge(1):
                    raise RuntimeError(f"{app.name}: local memory too small")
                page.resident = True
                app.lru.insert(page)
            else:
                page.resident = False
                allocator = self._allocator_for(app, page)
                entry = allocator.take_free_untimed()
                entry.stored_vpn = page.vpn
                page.swap_entry = entry

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def unregister_app(self, app: AppContext) -> Generator:
        """Tear an application down; drive with ``yield from`` in a process.

        The mirror of :meth:`register_app`, run after the app's threads
        have finished: stop its kswapd, drain every in-flight transfer
        it still owns, then sweep its pages — releasing swap-cache
        slots, uncharging frames, and freeing swap entries back through
        the allocator (rack-aware: condemned entries retire inside
        ``free``).  Subclasses extend the synchronous sweep via
        :meth:`_teardown_app`.  kswapd is never interrupted mid-round —
        it may hold the allocator lock — so shutdown raises the stop
        flag, kicks the park, and waits for the loop's clean exit.

        On return the app has no residual frame charge, no live swap
        entries, and no waiter parked on its pages; a leak raises
        ``RuntimeError`` rather than lingering silently.
        """
        name = app.name
        if self.apps.get(name) is not app:
            raise ValueError(f"app {name!r} is not registered")
        self._kswapd_stop[name] = True
        kick = self._kswapd_kick.get(name)
        if kick is not None and not kick.fired:
            kick.succeed()
        proc = self._kswapd_proc.get(name)
        if proc is not None and not proc.fired:
            yield proc
        # Drain barrier: every writeback, prefetch, and demand read the
        # app still owns must complete (or error out and unwind) before
        # the sweep frees the entries they reference.
        while (
            app.outstanding_writebacks > 0
            or app.inflight_prefetches > 0
            or any(page.owner_name == name for page in self._inflight)
        ):
            yield self.engine.sleep(10.0)
        freed = self._teardown_app(app)
        self._kswapd_stop.pop(name, None)
        self._kswapd_proc.pop(name, None)
        self._kswapd_kick.pop(name, None)
        self._kswapd_park.pop(name, None)
        del self.apps[name]
        if self.trace is not None:
            self.trace.emit(
                APP_UNREGISTER, name, 0, len(app.space.pages), freed
            )
        if app.pool.used != 0:
            raise RuntimeError(
                f"{name}: {app.pool.used} frame(s) still charged after teardown"
            )

    def _teardown_app(self, app: AppContext) -> int:
        """Synchronous teardown sweep (runs after the drain barrier).

        Returns the number of swap entries freed.  Subclasses extend it
        (Canvas: reservation release, scheduler/rebalancer/rack
        unregistration) and must call ``super()._teardown_app(app)``
        while their per-app policy state is still reachable, because
        the sweep dispatches through ``_cache_for``/``_release_entry``.

        Pages owned by another app (shared mappings faulted here) are
        left untouched: their charges and entries belong to the owner,
        which releases them at its own teardown.
        """
        name = app.name
        prefetcher = self._prefetcher_for(app)
        if prefetcher is not None:
            prefetcher.forget_app(name)
        freed = 0
        for page in app.space.pages.values():
            if page.owner_name != name:
                continue
            event = self._inflight.pop(page, None)
            if event is not None and not event.fired:
                event.succeed()  # wake stale waiters; I/O already drained
            self._inflight_req.pop(page, None)
            if page.in_swap_cache and page.swap_entry is not None:
                cache = self._cache_for(app, page)
                if cache.discard(page.swap_entry) is not None:
                    app.pool.uncharge(1)
            if page.resident:
                app.lru.discard(page)
                page.resident = False
                app.pool.uncharge(1)
            entry = page.swap_entry
            if entry is not None:
                if entry.allocated:
                    self._release_entry(app, page, entry)
                    freed += 1
                page.swap_entry = None
            page.locked = False
            page.prefetched = False
            page.prefetch_timestamp_us = None
        return freed

    # ------------------------------------------------------------------
    # Access fast path
    # ------------------------------------------------------------------

    def consume_batch(
        self,
        app: AppContext,
        batch,
        start: int,
        pending_cpu: float,
        flush_us: float,
    ):
        """Consume a run of resident accesses from ``batch[start:]``.

        Returns ``(next_index, pending_cpu, outcome)``.  The engine is
        frozen between the driver's yields, so every access in the run
        sees the same simulated instant; the run's per-access side
        effects (access counting, referenced/dirty bits, access
        timestamps, LRU promotion) land without a generator round-trip
        per access.

        * ``BATCH_FLUSH``: the access at ``next_index - 1`` pushed
          ``pending_cpu`` past ``flush_us``; the caller must execute it.
        * ``BATCH_FAULT``: the access at ``next_index`` is not resident.
          It is already counted and its CPU is in ``pending_cpu`` (its
          CPU is flushed before the fault); the caller admits the fault
          group starting there.
        * ``BATCH_END``: the batch is exhausted.

        One residency gather classifies the whole tail, and
        ``np.add.accumulate`` reproduces left-to-right float adds
        bit-for-bit (accumulate does not use pairwise summation), so
        ``pending_cpu`` and the flush crossing do not depend on where
        batch boundaries fall.  Run side effects are three scatters plus
        one stamped LRU bulk-promote.  A space with shared mappings
        (``has_foreign_pages``) applies them per page instead: a foreign
        page's flags live in its home space's arrays, and the LRU
        promote skips pages this app's LRU does not hold.

        A profiled run charges this method to the ``kernel.consume``
        layer from outside, under cProfile; it carries no timers.
        """
        space = app.space
        n = len(batch)
        if start >= n:  # defensive: driver never calls on an exhausted batch
            return n, pending_cpu, BATCH_END
        tr = self.trace
        if tr is not None:
            tr.emit(BATCH_ENTER, app.name, 0, start, n)
        varr = batch.vpn_array
        cpu = batch.constant_cpu
        resident_bits = space.resident_bits
        # Fault-storm shortcut: when the very first access misses — the
        # common case while a pressured app thrashes — classification
        # degenerates to one scalar residency read and one float add
        # (which even a same-index flush crossing loses on the
        # tie-break), with no run side effects at all.
        if not resident_bits[varr[start]]:
            if tr is not None:
                tr.emit(BATCH_EXIT, app.name, 0, 0, BATCH_FAULT)
            first_cpu = cpu if cpu is not None else float(batch.cpu_array[start])
            pending_cpu = pending_cpu + first_cpu
            app.stats.accesses += 1
            return start, pending_cpu, BATCH_FAULT
        v = varr[start:]
        res = resident_bits[v]
        m = int(res.argmin())
        fault_rel = -1 if res[m] else m
        remaining = n - start
        # Only accesses up to (and including) the fault can matter: a
        # flush crossing past the fault never wins the tie-break, and
        # accumulate over a prefix is bit-identical to the same prefix of
        # the full accumulate.  This keeps a fault 3 accesses in from
        # paying for a 1,024-element scan.
        limit = remaining if fault_rel < 0 else fault_rel + 1
        if cpu is not None:
            seq = np.full(limit + 1, cpu, dtype=np.float64)
        else:
            seq = np.empty(limit + 1, dtype=np.float64)
            seq[1:] = batch.cpu_array[start : start + limit]
        seq[0] = pending_cpu
        acc = np.add.accumulate(seq)
        ge = acc[1:] >= flush_us
        flush_rel = int(ge.argmax()) if ge.any() else -1
        # The faulting access wins when it sits at or before the flush
        # crossing.
        if fault_rel >= 0 and (flush_rel < 0 or fault_rel <= flush_rel):
            run_len = fault_rel
            end = start + fault_rel
            # The faulting access's CPU is flushed before the fault.
            pending_cpu = float(acc[fault_rel + 1])
            outcome = BATCH_FAULT
        elif flush_rel >= 0:
            run_len = flush_rel + 1
            end = start + run_len
            pending_cpu = float(acc[run_len])
            outcome = BATCH_FLUSH
        else:
            run_len = remaining
            end = n
            pending_cpu = float(acc[-1])
            outcome = BATCH_END
        # Side effects for the resident run [start, end): referenced +
        # timestamp scatters, bulk LRU promote (duplicate VPNs resolve
        # last-write-wins, matching sequential per-access stamping), and
        # dirty bits for the run's write positions.  The faulting access,
        # if any, sits at ``end`` and is dirtied after the fault resolves.
        if run_len:
            rv = v[:run_len]
            wp = batch.write_pos_array
            lo = hi = 0
            if len(wp):
                lo = int(np.searchsorted(wp, start, side="left"))
                hi = int(np.searchsorted(wp, end, side="left"))
            if space.has_foreign_pages:
                now = self.engine.now
                page_map = space.page_map
                for vpn in rv.tolist():
                    page_map[vpn].touch(now)
                for vpn in varr[wp[lo:hi]].tolist():
                    page_map[vpn].dirty = True
            else:
                space.referenced_bits[rv] = True
                space.last_access_arr[rv] = self.engine.now
                if hi > lo:
                    space.dirty_bits[varr[wp[lo:hi]]] = True
            app.lru.note_access_run(rv)
        app.stats.accesses += run_len + (1 if outcome == BATCH_FAULT else 0)
        if tr is not None:
            tr.emit(BATCH_EXIT, app.name, 0, run_len, outcome)
        return end, pending_cpu, outcome

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def handle_fault(
        self, app: AppContext, thread_id: int, vpn: int, write: bool
    ) -> Generator:
        """The §2 fault path.  Yields until the page is mapped.

        The one resolution loop: the driver reaches it through
        :meth:`handle_fault_group`; direct callers call it per fault.
        """
        engine = self.engine
        stats = app.stats
        page = app.space.page(vpn)
        stats.faults += 1
        start = engine.now
        tr = self.trace
        if tr is not None:
            tr.emit(FAULT_BEGIN, app.name, thread_id, vpn, 1 if write else 0)
        yield engine.sleep(self.config.fault_overhead_us)
        cache = self._cache_for(app, page)
        first_check = True
        while not page.resident:
            entry = page.swap_entry
            if first_check:
                if entry is None:
                    cached = None
                elif not page.in_swap_cache:
                    # The flag mirrors cache membership exactly, so a
                    # miss needs no dict probe; count it as lookup()
                    # would have.
                    cache.stats.lookups += 1
                    cached = None
                else:
                    cached = cache.lookup(entry)
                if cached is not None:
                    stats.cache_hits += 1
                    if page.prefetched:
                        # A prefetched page only *contributes* if it is
                        # ready (unlocked) when the fault arrives; a late
                        # prefetch still blocks the thread (§3, Fig. 6).
                        # The flag is consumed here so one prefetched page
                        # counts at most one contribution hit, and its
                        # arrival-to-use gap feeds the §5.3 timeliness
                        # distribution.
                        if not page.locked:
                            stats.prefetch_cache_hits += 1
                            if tr is not None:
                                tr.emit(PF_HIT, app.name, thread_id, vpn)
                            self.telemetry.timeliness_hist(app.name).record(
                                engine.now - page.prefetched_at_us
                            )
                            page.prefetched = False
                        # swap_ra hit: the *prediction* was right either
                        # way, so feed positive effectiveness back and
                        # keep the readahead window going (Linux issues
                        # async readahead on ra hits).
                        self._issue_prefetches(
                            app, thread_id, vpn, prefetched_hit=True
                        )
                first_check = False
            else:
                cached = cache.peek(entry) if entry is not None else None

            inflight_req = self._inflight_req.get(page)
            writeback_rescue = (
                cached is not None
                and page.locked
                and inflight_req is not None
                and inflight_req.kind is RequestKind.SWAPOUT
            )
            if (cached is not None and not page.locked) or writeback_rescue:
                # Plain cache hit, or a page whose writeback is still in
                # flight: the data is local either way, so map it back in
                # (the write completes harmlessly; Linux reuses swap-cache
                # pages under writeback the same way).
                yield engine.sleep(self.config.map_in_cost_us)
                if page.resident:
                    break  # another waiter mapped it during the timeout
                if not page.in_swap_cache:
                    continue  # released during the timeout; re-fetch
                # Re-evaluate in-flight state: it may have changed during
                # the timeout (e.g. a new demand read was issued).
                current = self._inflight_req.get(page)
                rescuing = (
                    page.locked
                    and current is not None
                    and current.kind is RequestKind.SWAPOUT
                )
                if page.locked and not rescuing:
                    continue
                self._map_in(app, page, write)
                if rescuing:
                    stats.writeback_rescues += 1
                    if tr is not None:
                        tr.emit(WB_RESCUE, app.name, thread_id, vpn)
                    # Detach the in-flight writeback from the page so a
                    # later re-eviction can track its own I/O; its
                    # completion sees itself superseded and does nothing.
                    del self._inflight_req[page]
                    stale_event = self._inflight.pop(page, None)
                    if stale_event is not None and not stale_event.fired:
                        stale_event.succeed()
                break

            event = self._inflight.get(page)
            if event is not None:
                if page.prefetched:
                    stats.blocked_on_prefetch += 1
                    if tr is not None:
                        tr.emit(PF_LATE, app.name, thread_id, vpn)
                if tr is not None:
                    tr.emit(FAULT_PARK, app.name, thread_id, vpn)
                yield from self._wait_inflight(app, page, thread_id, event)
                if tr is not None:
                    tr.emit(FAULT_WAKE, app.name, thread_id, vpn)
                continue  # re-evaluate: mapped by writeback drop, cached, ...

            # Demand swap-in.
            stats.demand_swapins += 1
            if entry is None:
                raise RuntimeError(
                    f"{app.name}: vpn {vpn:#x} non-resident without swap entry"
                )
            event = Event(
                engine, f"read.{app.name}.{vpn:#x}" if DEBUG_EVENT_NAMES else ""
            )
            self._inflight[page] = event
            page.locked = True
            # Uncontended charge fast path: ``_charge_frames`` begins
            # with exactly this try_charge and ends with exactly this
            # watermark kick, so inlining the success case skips only
            # the throwaway generator.
            if app.pool.try_charge(1):
                if app.pool.above_low_watermark:
                    self._kick_kswapd(app)
            else:
                yield from self._charge_frames(app, 1, thread_id)
            cache.insert(entry, page, prefetched=False)
            request = self._acquire_request(
                RdmaOp.READ, RequestKind.DEMAND, app.name, entry, page
            )
            self._inflight_req[page] = request
            # §5.3: a demand request clears the entry's prefetch timestamp
            # so later faulting threads block instead of re-issuing.
            entry.timestamp_us = None
            if tr is not None:
                tr.emit(DEMAND_ISSUE, app.name, thread_id, vpn, request.request_id)
            self._submit(app, request)
            self._issue_prefetches(app, thread_id, vpn)
            if tr is not None:
                tr.emit(FAULT_PARK, app.name, thread_id, vpn)
            yield from self._wait_inflight(app, page, thread_id, event)
            if tr is not None:
                tr.emit(FAULT_WAKE, app.name, thread_id, vpn)
            # Loop: the completion unlocked the page; next pass maps it.
        stats.fault_stall_us += engine.now - start
        if tr is not None:
            tr.emit(FAULT_END, app.name, thread_id, vpn, engine.now - start)
        for hook in self.fault_hooks:
            hook(app.name, thread_id, vpn, start, engine.now)

    def handle_fault_group(
        self, app: AppContext, thread_id: int, batch, index: int, pending_cpu: float
    ) -> Generator:
        """Admit a run of consecutive non-resident accesses as one group.

        Called by the driver when ``consume_batch`` truncates at
        ``batch[index]``.  Members resolve strictly one after another
        through :meth:`handle_fault`, each preceded by the CPU flush the
        driver would perform (consume → flush → fault, per member), so
        grouping changes no yield, timestamp, or counter.  What it saves
        is the per-member trip back through the driver and the consume
        core: membership is one residency-bitmap read per member.

        Membership is dynamic — re-checked between members because a
        prefetch landing mid-group makes the next access resident (the
        group ends there; the driver's consume core takes over), and a
        page evicted after admission simply faults.  Returns the next
        batch index via ``StopIteration``.
        """
        stats = app.stats
        space = app.space
        page_map = space.page_map
        execute = app.cores.execute
        handle_fault = self.handle_fault
        tr = self.trace
        vpn_list = batch.vpn_list
        write_list = batch.write_list
        cpu = batch.constant_cpu
        cpu_array = None if cpu is not None else batch.cpu_array
        n = len(batch)
        first_vpn = vpn_list[index]
        if tr is not None:
            # Planned run length up to the first resident access
            # (trace-only; actual membership is dynamic).  The bitmap
            # is exact for every mapped page, shared ones included.
            resident_bits = space.resident_bits
            planned = n - index
            for k in range(index + 1, n):
                if resident_bits[vpn_list[k]]:
                    planned = k - index
                    break
            tr.emit(FAULT_GROUP_BEGIN, app.name, thread_id, first_vpn, planned)
        members = 0
        i = index
        while i < n:
            vpn = vpn_list[i]
            if members:
                if space.resident_bits[vpn]:
                    break  # a prefetch landed: back to the resident path
                stats.accesses += 1
                pending_cpu = pending_cpu + (
                    cpu if cpu_array is None else float(cpu_array[i])
                )
            if pending_cpu > 0.0:
                yield from execute(pending_cpu)
                pending_cpu = 0.0
            write = write_list[i]
            yield from handle_fault(app, thread_id, vpn, write)
            if write:
                page_map[vpn].dirty = True
            members += 1
            i += 1
        if tr is not None:
            tr.emit(FAULT_GROUP_END, app.name, thread_id, first_vpn, members)
        return i

    def _map_in(self, app: AppContext, page: Page, write: bool) -> None:
        """Move a swap-cache page into the process address space."""
        cache = self._cache_for(app, page)
        if page.in_swap_cache and page.swap_entry is not None:
            cache.remove(page.swap_entry)
        if page.prefetched:
            # A late prefetch (the thread blocked on it): clear the flag
            # without feeding the timeliness distribution — its
            # arrival-to-use gap is ~0 by construction and would shrink
            # the §5.3 threshold spuriously.
            page.prefetched = False
        page.resident = True
        page.locked = False
        self._on_mapped(app, page)
        app.lru.insert(page)
        page.touch(self.engine.now, write)

    def _on_read_complete(self, app: AppContext, request: RdmaRequest) -> None:
        page = request.page
        if self._inflight_req.get(page) is not request:
            # A stale (dropped-in-service) prefetch: discard its data.
            request.entry.valid = True
            return
        del self._inflight_req[page]
        page.locked = False
        if request.kind is RequestKind.PREFETCH:
            self._dec_inflight_prefetch(request.app_name)
            page.prefetched_at_us = self.engine.now
            page.prefetch_timestamp_us = None
            request.entry.timestamp_us = None
        event = self._inflight.pop(page, None)
        if event is not None and not event.fired:
            event.succeed()

    # ------------------------------------------------------------------
    # Error-CQE recovery (graceful degradation under fault injection)
    # ------------------------------------------------------------------

    def _on_read_error(self, app: AppContext, request: RdmaRequest) -> None:
        """A swap-in failed past the transport retry budget.

        Demand reads are retried with a fresh request (the faulting
        threads stay parked on the page's in-flight event, so a retry is
        invisible to them beyond the added stall); speculative prefetches
        are cancelled instead — the cheapest load to shed — and a later
        fault demand-fetches the page.
        """
        page = request.page
        if self._inflight_req.get(page) is not request:
            # Superseded (e.g. dropped by the scheduler and reissued as a
            # demand read): nothing depends on this request anymore.
            request.entry.valid = True
            return
        if request.kind is RequestKind.PREFETCH:
            self._cancel_prefetch(app, request)
            return
        retries = request.kernel_retries + 1
        if retries > self.config.max_kernel_retries:
            raise RuntimeError(
                f"{app.name}: demand read for vpn {page.vpn:#x} failed "
                f"{retries} times past the transport budget — fabric is "
                f"persistently failing"
            )
        app.stats.demand_retries += 1
        if self.trace is not None:
            self.trace.emit(DEMAND_RETRY, app.name, 0, page.vpn, retries)
        entry = request.entry
        rack = self.rack
        if rack is not None and rack.dead_target(request):
            # The home server died under this read: rebind the page to a
            # live entry and retry against it (modelling the re-read from
            # a surviving replica); the rack re-establishes the new home
            # copy in the background.
            entry = rack.rebind_for_read_retry(self, app, page, entry)
        retry = self._acquire_request(
            RdmaOp.READ, RequestKind.DEMAND, app.name, entry, page
        )
        retry.kernel_retries = retries
        self._inflight_req[page] = retry
        # The page keeps its frame charge, cache slot, and lock; waiters
        # stay parked on the same in-flight event until the retry lands.
        entry.timestamp_us = None
        self._submit(app, retry)

    def _cancel_prefetch(self, app: AppContext, request: RdmaRequest) -> None:
        """Unwind a failed prefetch completely (mirrors a scheduler drop)."""
        page = request.page
        app.stats.prefetches_cancelled += 1
        if self.trace is not None:
            self.trace.emit(PF_CANCEL, app.name, 0, page.vpn, request.request_id)
        request.entry.valid = True
        self._unwind_prefetch(app, request)

    def _unwind_prefetch(self, app: AppContext, request: RdmaRequest) -> None:
        """Undo a prefetch that will never land (error CQE or scheduler
        drop): release its in-flight slot, cache slot and frame, clear
        the page's prefetch state, and wake its waiters."""
        page = request.page
        if request.kind is RequestKind.PREFETCH:
            self._dec_inflight_prefetch(request.app_name)
        del self._inflight_req[page]
        event = self._inflight.pop(page, None)
        if page.in_swap_cache and page.swap_entry is not None:
            self._cache_for(app, page).discard(page.swap_entry)
            app.pool.uncharge(1)
        page.locked = False
        page.prefetched = False
        page.prefetch_timestamp_us = None
        request.entry.timestamp_us = None
        if event is not None and not event.fired:
            event.succeed()  # waiters re-evaluate and demand-fetch

    def _on_writeback_error(self, app: AppContext, request: RdmaRequest) -> None:
        """A swap-out failed past the transport retry budget.

        The dirty page still sits in the swap cache holding its frame, so
        the writeback is simply reissued; the logical writeback stays
        outstanding until one reissue completes.  A rescued (re-faulted)
        page needs no retry — its data is local again.
        """
        page = request.page
        if self._inflight_req.get(page) is not request:
            # Rescued mid-flight: the failed write is moot, and the
            # logical writeback ends here.
            app.outstanding_writebacks = max(0, app.outstanding_writebacks - 1)
            return
        retries = request.kernel_retries + 1
        if retries > self.config.max_kernel_retries:
            raise RuntimeError(
                f"{app.name}: writeback for vpn {page.vpn:#x} failed "
                f"{retries} times past the transport budget — fabric is "
                f"persistently failing"
            )
        app.stats.writeback_retries += 1
        if self.trace is not None:
            self.trace.emit(WB_RETRY, app.name, 0, page.vpn, retries)
        entry = request.entry
        rack = self.rack
        if rack is not None and rack.dead_target(request):
            # The target server died under this writeback: the data is
            # still local, so just retarget the write at a live entry.
            entry = rack.rebind_for_writeback_retry(self, app, page, entry)
        retry = self._acquire_request(
            RdmaOp.WRITE, RequestKind.SWAPOUT, app.name, entry, page
        )
        retry.kernel_retries = retries
        self._inflight_req[page] = retry
        self._submit(app, retry)

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------

    def _issue_prefetches(
        self,
        app: AppContext,
        thread_id: int,
        vpn: int,
        prefetched_hit: bool = False,
    ) -> None:
        prefetcher = self._prefetcher_for(app)
        proposals = prefetcher.on_fault(
            app.name, thread_id, vpn, self.engine.now, prefetched_hit=prefetched_hit
        )
        if self.trace is not None and proposals:
            self.trace.emit(PF_PROPOSE, app.name, thread_id, vpn, len(proposals))
        issued = self.issue_prefetch_vpns(app, proposals)
        self._post_prefetch_hook(app, thread_id, vpn, issued, prefetched_hit)

    def issue_prefetch_vpns(
        self, app: AppContext, vpns: List[int], recycle: bool = True
    ) -> int:
        """Issue prefetch reads for valid, absent, not-in-flight pages.

        Returns the number actually issued.  Prefetches never trigger
        reclaim: when the cgroup has no free frames, proposals may recycle
        old clean swap-cache pages (``recycle=True``, the kernel tier's
        behaviour per §2) or are simply dropped (application-tier
        proposals, which must not cannibalize the kernel tier's cache).
        """
        if not vpns:
            # Nothing proposed (silent readahead, empty window): skip the
            # budget math but keep the trailing cache-pressure check —
            # it can release over-budget clean pages regardless.
            self._shrink_cache_if_needed(app)
            return 0
        issued = 0
        # The in-flight window must fit comfortably in the cache that will
        # buffer the arrivals, or prefetches evict each other before use.
        cache_cap = self._private_cache(app).capacity_pages
        limit = min(self.config.max_inflight_prefetches, max(8, cache_cap // 2))
        budget = limit - self._inflight_prefetches(app)
        page_or_none = app.space.page_or_none
        for vpn in vpns:
            if budget <= 0:
                break
            page = page_or_none(vpn)
            if page is None or page.resident or page.locked:
                continue
            entry = page.swap_entry
            if entry is None or page.in_swap_cache:
                continue
            cache = self._cache_for(app, page)
            if not app.pool.try_charge(1):
                if not recycle:
                    app.stats.prefetch_frames_denied += 1
                    break
                # "When memory runs low, the kernel releases existing
                # pages from the swap cache to make room for newly
                # fetched pages" (§2): recycle old clean cache pages
                # (typically stale prefetches) before giving up.
                self._shrink_cache_if_needed(app, force_min=2)
                self._kick_kswapd(app)
                if not app.pool.try_charge(1):
                    app.stats.prefetch_frames_denied += 1
                    break
            event = Event(
                self.engine,
                f"prefetch.{app.name}.{vpn:#x}" if DEBUG_EVENT_NAMES else "",
            )
            self._inflight[page] = event
            page.locked = True
            page.prefetch_timestamp_us = self.engine.now
            cache.insert(entry, page, prefetched=True)
            request = self._acquire_request(
                RdmaOp.READ, RequestKind.PREFETCH, app.name, entry, page
            )
            self._inflight_req[page] = request
            if self.trace is not None:
                self.trace.emit(PF_ISSUE, app.name, 0, vpn, request.request_id)
            self._submit(app, request)
            issued += 1
            budget -= 1
            app.stats.prefetches_issued += 1
            app.inflight_prefetches += 1
        self._shrink_cache_if_needed(app)
        return issued

    def _inflight_prefetches(self, app: AppContext) -> int:
        return app.inflight_prefetches

    def _dec_inflight_prefetch(self, app_name: str) -> None:
        """One in-flight prefetch left the system (completed or dropped)."""
        app = self.apps.get(app_name)
        if app is not None and app.inflight_prefetches > 0:
            app.inflight_prefetches -= 1

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------

    def _charge_frames(
        self, app: AppContext, n_pages: int, core_id: int
    ) -> Generator:
        """Charge the cgroup, running direct reclaim when over budget."""
        while not app.pool.try_charge(n_pages):
            app.stats.direct_reclaims += 1
            freed = self._shrink_cache_if_needed(app, force_min=n_pages)
            if freed >= n_pages:
                continue
            done = yield from self._evict_one(app, core_id)
            if not done:
                if app.outstanding_writebacks > 0:
                    # Every frame is pinned by an in-flight writeback:
                    # congestion-wait for completions, then retry.
                    yield self.engine.sleep(20.0)
                    continue
                raise RuntimeError(f"{app.name}: out of memory, nothing evictable")
        if app.pool.above_low_watermark:
            self._kick_kswapd(app)

    def _evict_victim(
        self, app: AppContext, victim: Page, core_id: int, lane: int
    ) -> Generator:
        """Evict one selected victim; the per-victim body of reclaim.

        Clears the residency flags, then either drops a clean page whose
        remote copy is still valid (no yields) or prepares its writeback:
        lock, entry allocation (which may yield), swap-cache insert, and
        the pooled write request.  Returns that request for the caller
        to submit, or None for a clean drop.  ``lane`` is the trace
        thread the records land on.
        """
        victim.resident = False
        victim.referenced = False
        tr = self.trace
        if tr is not None:
            tr.emit(EVICT, app.name, lane, victim.vpn, 1 if victim.dirty else 0)
        self._on_evicted(app, victim)
        cache = self._cache_for(app, victim)

        if not victim.dirty and victim.swap_entry is not None:
            # Remote copy still valid (kept entry): drop without writeback.
            app.pool.uncharge(1)
            app.stats.clean_drops += 1
            if tr is not None:
                tr.emit(CLEAN_DROP, app.name, lane, victim.vpn)
            # Still a swap-out for throughput purposes: the page left
            # local memory and lives remotely (its write was just free).
            self.telemetry.swapout_rate(app.name).record(self.engine.now)
            return None

        # Writeback path: obtain an entry, push through the cache.  The
        # page must be protected *before* the (possibly lock-waiting)
        # allocation: a racing fault parks on the in-flight event.
        victim.locked = True
        event = Event(
            self.engine,
            f"writeback.{app.name}.{victim.vpn:#x}" if DEBUG_EVENT_NAMES else "",
        )
        self._inflight[victim] = event
        entry = yield from self._obtain_writeback_entry(app, victim, core_id)
        entry.stored_vpn = victim.vpn
        victim.swap_entry = entry
        victim.dirty = True  # data must travel
        cache.insert(entry, victim, prefetched=False)
        request = self._acquire_request(
            RdmaOp.WRITE, RequestKind.SWAPOUT, app.name, entry, victim
        )
        self._inflight_req[victim] = request
        if tr is not None:
            tr.emit(WB_ISSUE, app.name, lane, victim.vpn, request.request_id)
        app.outstanding_writebacks += 1
        app.stats.swapouts += 1
        self.telemetry.swapout_rate(app.name).record(self.engine.now)
        return request

    def _evict_one(self, app: AppContext, core_id: int) -> Generator:
        """Direct reclaim: evict one LRU victim and wait for its writeback.

        Returns True if a page was evicted.
        """
        victims = app.lru.select_victims(1)
        if not victims:
            return False
        request = yield from self._evict_victim(app, victims[0], core_id, core_id)
        if request is not None:
            self._submit(app, request)
            # Wait on the request's own completion, not the page's
            # in-flight event: a rescue may detach the latter.
            yield request.completion
        return True

    def _evict_many(self, app: AppContext, core_id: int, n: int) -> Generator:
        """Background reclaim: evict up to ``n`` LRU victims in rounds.

        One generator drives kswapd's whole batch.  Each round pops
        victims off the LRU with one ``select_victims`` call — a single
        walk of the victim queue — that *stops at the first page needing
        a writeback*
        (:func:`_needs_writeback`).  Everything up to and including that
        page's lock happens at one simulated instant with no yields, so
        selecting those victims up front is invisible; the writeback
        member then yields in entry allocation, and victims after it are
        selected after the yield — hence a new round.  Per round at most
        one write request exists, the round's last victim's, and it is
        submitted as soon as :meth:`_evict_victim` builds it.

        Trace records land on thread lane ``RECLAIM_LANE`` so the
        ``reclaim-group-pairing`` lint can count this group's EVICTs
        without catching concurrent direct-reclaim evictions.  Returns
        the number of pages evicted (short only when the LRU runs dry).
        """
        tr = self.trace
        if tr is not None:
            tr.emit(RECLAIM_GROUP_BEGIN, app.name, RECLAIM_LANE, 0, n)
        evicted = 0
        while evicted < n:
            victims = app.lru.select_victims(n - evicted, stop=_needs_writeback)
            if not victims:
                break
            for victim in victims:
                request = yield from self._evict_victim(
                    app, victim, core_id, RECLAIM_LANE
                )
                if request is not None:
                    self._submit(app, request)
            evicted += len(victims)
        if tr is not None:
            tr.emit(RECLAIM_GROUP_END, app.name, RECLAIM_LANE, 0, evicted)
        return evicted

    def _on_writeback_complete(self, app: AppContext, request: RdmaRequest) -> None:
        page = request.page
        app.outstanding_writebacks = max(0, app.outstanding_writebacks - 1)
        if self._inflight_req.get(page) is not request:
            return  # superseded: the page was rescued and re-evicted
        del self._inflight_req[page]
        if self.trace is not None:
            self.trace.emit(
                WB_COMPLETE, app.name, 0, page.vpn, request.request_id
            )
        event = self._inflight.pop(page, None)
        if not page.resident:
            # A rescued (resident) page keeps its frame and dirty state;
            # otherwise the page leaves the cache and frees its frame.
            page.dirty = False
            page.locked = False
            if page.in_swap_cache and page.swap_entry is not None:
                cache = self._cache_for(app, page)
                cache.discard(page.swap_entry)
                app.pool.uncharge(1)
        if event is not None and not event.fired:
            event.succeed()

    def _shrink_cache_if_needed(self, app: AppContext, force_min: int = 0) -> int:
        """Release clean over-budget swap-cache pages; returns pages freed.

        ``force_min`` releases pages even below budget — the "when memory
        runs low, the kernel releases existing pages from the swap cache"
        path of §2, used by direct reclaim.
        """
        cache = self._private_cache(app)
        if force_min <= 0 and len(cache) <= cache.capacity_pages:
            return 0  # within budget and not forced: the common case
        target = max(cache.overflow, force_min)
        if target <= 0:
            return 0
        # One candidate scan with a vectorized dirty filter, then a
        # single batched release; the truncation to ``target`` matches
        # the old per-page loop's early break, so the released set (and
        # order) is identical.
        releasable = cache.shrink_candidates(target * 2, clean_only=True)
        releasable = releasable[:target]
        if not releasable:
            return 0
        released = cache.release_many([entry_id for entry_id, _ in releasable])
        uncharges: Dict[str, int] = {}
        for page in released:
            uncharges[page.owner_name] = uncharges.get(page.owner_name, 0) + 1
        for owner_name, count in uncharges.items():
            owner = self.apps.get(owner_name, app)
            owner.pool.uncharge(count)
        return len(released)

    def _private_cache(self, app: AppContext) -> SwapCache:
        """The swap cache holding this app's private pages."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # kswapd
    # ------------------------------------------------------------------

    def _kick_kswapd(self, app: AppContext) -> None:
        event = self._kswapd_kick.get(app.name)
        if event is not None and not event.fired:
            event.succeed()

    def _kswapd_loop(self, app: AppContext) -> Generator:
        park = self._kswapd_park[app.name]
        stop = self._kswapd_stop
        # The stop flag is a host-side dict read: runs that never
        # unregister take the identical yield sequence as the flagless
        # ``while True`` loop (digest-pinned by the teardown A/B tests).
        while not stop.get(app.name, False):
            if app.pool.reclaim_target() <= 0:
                self._kswapd_kick[app.name] = park
                yield park
                self._kswapd_kick[app.name] = None
                park.reset()
                continue
            # Scale the batch with backlog (kswapd raises its scan
            # priority under pressure) but keep it small enough that the
            # eviction window stays short, and cap outstanding writebacks
            # so a congested write path cannot pin every frame.
            outstanding = app.outstanding_writebacks
            writeback_cap = max(8, app.pool.capacity_pages // 8)
            if outstanding >= writeback_cap:
                yield self.engine.sleep(10.0)
                continue
            target = app.pool.reclaim_target()
            batch = min(4 * self.config.kswapd_batch, max(self.config.kswapd_batch, target // 4))
            batch = min(batch, target, writeback_cap - outstanding)
            app.stats.kswapd_reclaims += batch
            # kswapd is one kernel thread: it evicts its batch serially
            # (each writeback is issued asynchronously, so the wire still
            # pipelines); only faulting threads add allocation concurrency.
            yield from self._evict_many(app, 0, batch)
            # Writebacks issued; give completions a chance to land before
            # the next round so the target reflects reality.
            yield self.engine.sleep(8.0)


class LinuxSwapSystem(BaseSwapSystem):
    """The Linux 5.5 baseline: everything shared.

    One swap partition with a lock-protected free-list allocator, one
    swap cache, one prefetcher instance fed by every application's fault
    stream, and one pair of RDMA QPs — the configuration whose
    interference §3 dissects.
    """

    def __init__(
        self,
        engine: Engine,
        nic: RNIC,
        partition_pages: int,
        prefetcher: Optional[Prefetcher] = None,
        telemetry: Optional[Telemetry] = None,
        config: Optional[SwapSystemConfig] = None,
        allocator_cls=EntryAllocator,
        name: str = "linux",
    ):
        super().__init__(engine, nic, telemetry, config, name)
        self.partition = SwapPartition(f"{name}.swap", partition_pages)
        self.allocator = allocator_cls(engine, self.partition, name=f"{name}.alloc")
        self.cache = SwapCache(f"{name}.cache", self.config.shared_cache_pages)
        self.prefetcher = prefetcher if prefetcher is not None else Prefetcher()
        self.read_qp = nic.create_qp(f"{name}.read", RdmaOp.READ, priority=0)
        self.write_qp = nic.create_qp(f"{name}.write", RdmaOp.WRITE, priority=0)

    def _setup_app(self, app: AppContext) -> None:
        pass  # nothing per-app: that is the point of this baseline

    def _attach_tracer_extra(self, tracer) -> None:
        self.allocator.tracer = tracer

    def _cache_for(self, app: AppContext, page: Page) -> SwapCache:
        return self.cache

    def _private_cache(self, app: AppContext) -> SwapCache:
        return self.cache

    def _allocator_for(self, app: AppContext, page: Page) -> EntryAllocator:
        return self.allocator

    def _prefetcher_for(self, app: AppContext) -> Prefetcher:
        return self.prefetcher

    def _submit(self, app: AppContext, request: RdmaRequest) -> None:
        if request.op is RdmaOp.READ:
            self.nic.submit(self.read_qp, request)
        else:
            self.nic.submit(self.write_qp, request)
