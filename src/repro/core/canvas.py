"""Canvas: the fully isolated, adaptive swap system (§4, §5).

Per cgroup, Canvas provisions a private
:class:`~repro.kernel.swap_system.SwapPath` (bound to
``AppContext.swap_path``):

* a **private swap partition** with its own entry manager — optionally
  the adaptive reservation allocator of §5.1;
* a **private swap cache** (default 32 MB) charged to the cgroup's
  memory budget;
* a **private kernel-tier prefetcher** instance (isolated fault history),
  optionally escalating to the application tier through userfaultfd
  (§5.2);

plus a **virtual queue pair** feeding the two-dimensional RDMA
scheduler (§4, §5.3).

Shared pages (mapcount > 1) bypass all of this onto the global
``shared_path``: a global partition and global swap cache managed with
the original lock-based allocator, limited by the ``cgroup-shared``
budget (§4).  Prefetching stays per cgroup, so the global path's
prefetcher is the null one.

The three adaptive optimizations can be toggled independently via
:class:`CanvasConfig`, which is how the evaluation's ablations (isolation
only, ± adaptive allocation, ± two-tier prefetching, ± horizontal
scheduling) are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.core.adaptive_alloc import AdaptiveSwapManager
from repro.core.rdma_sched import TwoDimensionalScheduler
from repro.core.two_tier import TwoTierController
from repro.kernel.cgroup import AppContext
from repro.kernel.swap_system import BaseSwapSystem, SwapPath, SwapSystemConfig
from repro.kernel.telemetry import Telemetry
from repro.kernel.userfaultfd import UserfaultfdChannel
from repro.mem.page import Page
from repro.obs.trace import DEMAND_ISSUE, PF_DROP
from repro.prefetch.base import Prefetcher
from repro.prefetch.readahead import KernelReadahead
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind
from repro.rdma.nic import RNIC
from repro.sim.engine import DEBUG_EVENT_NAMES, Engine, Event
from repro.swap.allocator import EntryAllocator
from repro.swap.partition import SwapPartition
from repro.swap.swap_cache import SwapCache

__all__ = ["CanvasConfig", "CanvasSwapSystem"]


@dataclass
class CanvasConfig:
    """Feature toggles and sizing for Canvas (isolation is always on)."""

    adaptive_allocation: bool = True
    two_tier_prefetch: bool = True
    #: Priority (demand over prefetch) + timeliness drops within each app.
    horizontal_scheduling: bool = True
    #: Toggle timeliness drops independently of the priority split (the
    #: Fig. 14 ablation); None follows ``horizontal_scheduling``.
    timeliness_drops: Optional[bool] = None
    #: §5.1 trigger: start cancelling reservations at this occupancy.
    reservation_high_occupancy: float = 0.75
    #: Global (cgroup-shared) partition/cache for shared pages.
    global_partition_pages: int = 8192
    global_cache_pages: int = 8192
    #: Factory for per-app kernel-tier prefetchers; None → KernelReadahead.
    kernel_prefetcher_factory: Optional[object] = None
    #: Extension (the paper's stated future work): dynamically shift
    #: swap-cache budget from idle cgroups to pressured ones, max-min
    #: style, instead of purely static partitioning.
    dynamic_cache_rebalance: bool = False
    #: §4: allocate remote memory in a demand-driven manner — partitions
    #: start at one chunk and grow (paying an RDMA buffer-registration
    #: latency) toward the cgroup limit as the free list drains.
    demand_driven_remote: bool = False
    remote_chunk_entries: int = 1024


class _CanvasAppState:
    """What Canvas provisions for one cgroup besides its swap path."""

    def __init__(self):
        self.adaptive: Optional[AdaptiveSwapManager] = None
        self.uffd: Optional[UserfaultfdChannel] = None
        self.two_tier: Optional[TwoTierController] = None
        self.remote: Optional["DemandDrivenRemoteMemory"] = None


class CanvasSwapSystem(BaseSwapSystem):
    """Holistic swap isolation plus the three adaptive optimizations."""

    def __init__(
        self,
        engine: Engine,
        nic: RNIC,
        telemetry: Optional[Telemetry] = None,
        config: Optional[SwapSystemConfig] = None,
        canvas_config: Optional[CanvasConfig] = None,
        name: str = "canvas",
    ):
        super().__init__(engine, nic, telemetry, config, name)
        self.canvas = canvas_config if canvas_config is not None else CanvasConfig()
        self.scheduler = TwoDimensionalScheduler(
            engine,
            nic,
            telemetry=self.telemetry,
            name=f"{name}.sched",
            horizontal=self.canvas.horizontal_scheduling,
            timeliness_drops=self.canvas.timeliness_drops,
            drop_callback=self._on_prefetch_dropped,
        )
        # The global path for shared pages (cgroup-shared, §4).
        partition = SwapPartition(f"{name}.global", self.canvas.global_partition_pages)
        self.shared_path = SwapPath(
            partition,
            EntryAllocator(engine, partition, name=f"{name}.global.alloc"),
            SwapCache(f"{name}.global.cache", self.canvas.global_cache_pages),
            Prefetcher(),
        )
        self._state: Dict[str, _CanvasAppState] = {}
        self.rebalancer = None
        if self.canvas.dynamic_cache_rebalance:
            from repro.core.rebalance import CacheRebalancer

            self._rebalance_caches: Dict[str, SwapCache] = {}
            self.rebalancer = CacheRebalancer(engine, self._rebalance_caches)

    # ------------------------------------------------------------------
    # Per-app provisioning
    # ------------------------------------------------------------------

    def attach_rack(self, rack) -> None:
        # Nothing is homed yet: each cgroup's partition, then the global
        # one, is homed as the cgroup registers (_setup_app), and
        # placement depends on that order.
        self.rack = rack

    def _setup_app(self, app: AppContext) -> SwapPath:
        state = _CanvasAppState()
        partition_pages = app.config.swap_partition_pages
        if partition_pages is None:
            # Default: enough remote memory for the whole address space.
            partition_pages = max(1024, app.space.total_pages + 256)
        if self.canvas.demand_driven_remote:
            from repro.core.remote_memory import DemandDrivenRemoteMemory

            initial = min(self.canvas.remote_chunk_entries, partition_pages)
            partition = SwapPartition(f"{app.name}.swap", initial)
            state.remote = DemandDrivenRemoteMemory(
                self.engine,
                partition,
                limit_entries=partition_pages,
                chunk_entries=self.canvas.remote_chunk_entries,
                fault_plan=self.fault_plan,
            )
        else:
            partition = SwapPartition(f"{app.name}.swap", partition_pages)
        base_alloc = EntryAllocator(self.engine, partition, name=f"{app.name}.alloc")
        base_alloc.tracer = self.trace
        if self.rack is not None:
            # Rack model: home this cgroup's partition (and the shared
            # global one) on memory servers, and let demand-driven
            # growth pay the home server's registration cost.
            shared = self.shared_path
            self.rack.adopt(self, partition, base_alloc)
            self.rack.adopt(self, shared.partition, shared.allocator)
            if state.remote is not None:
                state.remote.rack = self.rack
        if self.canvas.adaptive_allocation:
            state.adaptive = AdaptiveSwapManager(
                self.engine,
                partition,
                app,
                base_allocator=base_alloc,
                reservation_high_occupancy=self.canvas.reservation_high_occupancy,
            )
        cache = SwapCache(f"{app.name}.cache", app.config.swap_cache_pages)
        if self.rebalancer is not None:
            self._rebalance_caches[app.name] = cache
            self.rebalancer._baseline_total = sum(
                c.capacity_pages for c in self._rebalance_caches.values()
            )
        factory = self.canvas.kernel_prefetcher_factory
        prefetcher = factory() if factory is not None else KernelReadahead(
            name=f"{app.name}.readahead"
        )
        self.scheduler.register_app(app.name, weight=app.config.rdma_weight)
        if self.canvas.two_tier_prefetch:
            state.uffd = UserfaultfdChannel(
                self.engine,
                app,
                # Application-tier prefetches reach remote memory through
                # the same kernel path (async_prefetch, §5.2), including
                # its recycle-under-pressure behaviour; volume is bounded
                # by the in-flight window and the runtime's proposal caps.
                async_prefetch=self.issue_prefetch_vpns,
                max_queue=32,
            )
            state.two_tier = TwoTierController(state.uffd)
            runtime = app.runtime
            if runtime is not None and hasattr(runtime, "handle_forwarded_fault"):
                state.uffd.register_handler(runtime.handle_forwarded_fault)
        self._state[app.name] = state
        return SwapPath(partition, base_alloc, cache, prefetcher)

    def attach_runtime_handler(self, app: AppContext) -> None:
        """Bind a runtime attached after registration to the uffd channel."""
        state = self._state[app.name]
        if state.uffd is not None and app.runtime is not None:
            state.uffd.register_handler(app.runtime.handle_forwarded_fault)

    def prepopulate(self, app: AppContext, resident_fraction: float) -> None:
        state = self._state[app.name]
        if state.remote is not None:
            # Register enough remote memory for the initial cold set.
            total = app.space.total_pages
            n_resident = min(
                int(total * resident_fraction), app.pool.capacity_pages
            )
            state.remote.ensure_untimed(total - n_resident)
        super().prepopulate(app, resident_fraction)
        state = self._state[app.name]
        if state.adaptive is None:
            return
        # §5.1: "Canvas starts an execution by reserving swap entries for
        # all pages" — prepopulated cold pages keep their entries as
        # reservations (the partition is sized so cancellation triggers).
        for page in app.space.pages.values():
            if not page.resident and page.swap_entry is not None and not page.shared:
                state.adaptive.reserve_prepopulated(page)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _teardown_app(self, app: AppContext) -> int:
        """Dismantle the per-cgroup provisioning of :meth:`_setup_app`.

        Reservation release and the daemon interrupts run first (the
        adaptive manager needs live pages), then the base sweep over the
        app's still-bound swap path; scheduler, rebalancer, and rack
        unregistration come last.
        """
        state = self._state[app.name]
        if state.adaptive is not None:
            # The hot-page scanner only ever waits on timeouts, so an
            # interrupt is a clean exit (never mid-allocation).
            scanner = state.adaptive._scanner
            if scanner is not None and not scanner.fired:
                scanner.interrupt("teardown")
            for page in app.space.pages.values():
                if page.owner_name == app.name and page.reserved_entry is not None:
                    state.adaptive.release_on_free(page)
        if state.uffd is not None:
            # The uffd daemon is parked on its message store once the
            # app's threads are done; interrupting there is clean too.
            daemon = state.uffd._daemon
            if daemon is not None and not daemon.fired:
                daemon.interrupt("teardown")
        freed = super()._teardown_app(app)
        self.scheduler.unregister_app(app.name)
        if self.rebalancer is not None:
            self._rebalance_caches.pop(app.name, None)
            self.rebalancer._baseline_total = sum(
                c.capacity_pages for c in self._rebalance_caches.values()
            )
        if self.rack is not None:
            # Only the private partition withdraws; the global one stays
            # adopted for the apps still sharing it.
            self.rack.withdraw(app.swap_path.partition)
        del self._state[app.name]
        return freed

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    def _submit(self, app: AppContext, request: RdmaRequest) -> None:
        self.scheduler.submit(app.name, request)

    def _obtain_writeback_entry(
        self, app: AppContext, page: Page, core_id: int
    ) -> Generator:
        state = self._state[app.name]
        if state.remote is not None and not page.shared:
            # §4: register more remote memory if the free list runs low.
            yield from state.remote.maybe_grow()
        if state.adaptive is not None and not page.shared:
            locked_before = state.adaptive.stats.locked_allocations
            entry = yield from state.adaptive.obtain_entry(page, core_id)
            if state.adaptive.stats.locked_allocations > locked_before:
                self.telemetry.alloc_rate(app.name).record(self.engine.now)
            return entry
        entry = yield from super()._obtain_writeback_entry(app, page, core_id)
        return entry

    def _on_mapped(self, app: AppContext, page: Page) -> None:
        state = self._state[app.name]
        if state.adaptive is not None and not page.shared:
            state.adaptive.on_mapped(page)
            return
        super()._on_mapped(app, page)

    def _on_evicted(self, app: AppContext, page: Page) -> None:
        state = self._state[app.name]
        if state.adaptive is not None and not page.shared:
            state.adaptive.on_evicted(page)

    def _post_prefetch_hook(
        self,
        app: AppContext,
        thread_id: int,
        vpn: int,
        issued: int,
        prefetched_hit: bool = False,
    ) -> None:
        controller = self._state[app.name].two_tier
        if controller is None:
            return
        if prefetched_hit:
            # A readahead hit is direct proof the kernel tier works.
            controller.note_kernel_hit()
        else:
            controller.on_kernel_prefetch(thread_id, vpn, issued)

    # ------------------------------------------------------------------
    # §5.3: stale-prefetch detection and dropping
    # ------------------------------------------------------------------

    def _wait_inflight(
        self, app: AppContext, page: Page, thread_id: int, event
    ) -> Generator:
        request = self._inflight_req.get(page)
        if (
            self.scheduler.timeliness_drops
            and request is not None
            and request.kind is RequestKind.PREFETCH
            and page.prefetch_timestamp_us is not None
        ):
            threshold = self.scheduler.timeout_threshold_us(app.name)
            elapsed = self.engine.now - page.prefetch_timestamp_us
            if elapsed > threshold:
                yield from self._drop_and_reissue(app, page, request, event)
                return
            # §5.3: "we detect threads that block on prefetching requests
            # for too long and generate new demand requests for them" —
            # wait only until the request turns stale, then drop it.
            index, _value = yield self.engine.any_of(
                [event, self.engine.sleep(threshold - elapsed)]
            )
            if index == 0 or event.fired:
                return
            request = self._inflight_req.get(page)
            if request is not None and request.kind is RequestKind.PREFETCH:
                yield from self._drop_and_reissue(app, page, request, event)
            elif not event.fired:
                yield event
            return
        yield event

    def _drop_and_reissue(
        self, app: AppContext, page: Page, request: RdmaRequest, old_event
    ) -> Generator:
        """The faulting thread gives up on a late prefetch (§5.3)."""
        app.stats.prefetch_drops += 1
        if self.trace is not None:
            self.trace.emit(PF_DROP, app.name, 0, page.vpn, "stale")
        self._dec_inflight_prefetch(request.app_name)
        request.entry.valid = False  # in-service copy discards itself
        request.dropped = True  # still-queued copy is skipped
        page.prefetch_timestamp_us = None
        request.entry.timestamp_us = None
        new_event = Event(
            self.engine,
            f"reissue.{app.name}.{page.vpn:#x}" if DEBUG_EVENT_NAMES else "",
        )
        self._inflight[page] = new_event
        # Wake any co-waiters parked on the old event; they re-evaluate
        # and block on the new demand read.
        if not old_event.fired:
            old_event.succeed()
        demand = self._acquire_request(
            RdmaOp.READ, RequestKind.DEMAND, app.name, request.entry, page
        )
        self._inflight_req[page] = demand
        if self.trace is not None:
            self.trace.emit(DEMAND_ISSUE, app.name, 0, page.vpn, demand.request_id)
        self._submit(app, demand)
        yield new_event

    def _on_prefetch_dropped(self, request: RdmaRequest) -> None:
        """Scheduler-side drop: unwind kernel state so a fault re-fetches."""
        page = request.page
        app = self.apps.get(request.app_name)
        if app is None or page is None:
            return
        if self._inflight_req.get(page) is not request:
            return  # already superseded by a demand reissue
        if self.trace is not None:
            self.trace.emit(PF_DROP, app.name, 0, page.vpn, "sched")
        self._unwind_prefetch(app, request)

    # ------------------------------------------------------------------
    # Introspection helpers for experiments
    # ------------------------------------------------------------------

    def adaptive_stats(self, app_name: str):
        state = self._state[app_name].adaptive
        return None if state is None else state.stats

    def two_tier_stats(self, app_name: str):
        controller = self._state[app_name].two_tier
        return None if controller is None else controller.stats
