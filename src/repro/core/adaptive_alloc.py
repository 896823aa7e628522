"""Adaptive swap-entry allocation (§5.1).

The idea: pay the allocator's lock **once per page**.  The first time a
page is swapped out, its entry is obtained through the normal
lock-protected path and then *reserved* — the entry ID is written into
the page's ``struct page`` metadata and kept for the page's lifetime, so
every later swap-out of the page writes straight into the same remote
cell, lock-free.

Reservations trade remote-memory *space* for allocation *time*.  When the
cgroup's remote-memory usage approaches its limit (75% occupancy), the
manager starts cancelling reservations, preferring **hot pages**: pages
that keep appearing at the head of the LRU active list across consecutive
scans are likely to stay resident, so their reservations buy nothing.
A cancelled-then-evicted page simply falls back to the lock-protected
path — the paper's worst case, which equals stock Linux.

The page-state machine of Fig. 7 is maintained on
:class:`~repro.mem.page.Page.state` by this manager together with the
Canvas system's eviction/map-in hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Set

from repro.kernel.cgroup import AppContext
from repro.mem.page import Page, PageState
from repro.sim.engine import Engine
from repro.swap.allocator import EntryAllocator
from repro.swap.entry import SwapEntry
from repro.swap.partition import SwapPartition

__all__ = ["AdaptiveAllocStats", "AdaptiveSwapManager"]


@dataclass
class AdaptiveAllocStats:
    #: Swap-outs served lock-free from a reservation.
    reserved_swapouts: int = 0
    #: Swap-outs that went through the lock-protected allocator.
    locked_allocations: int = 0
    reservations_granted: int = 0
    reservations_removed: int = 0
    scans: int = 0

    @property
    def lock_free_fraction(self) -> float:
        total = self.reserved_swapouts + self.locked_allocations
        if total == 0:
            return 0.0
        return self.reserved_swapouts / total


class AdaptiveSwapManager:
    """Per-cgroup reservation bookkeeping over a private swap partition."""

    def __init__(
        self,
        engine: Engine,
        partition: SwapPartition,
        app: AppContext,
        base_allocator: Optional[EntryAllocator] = None,
        reservation_high_occupancy: float = 0.75,
        scan_period_us: float = 2_000.0,
        scan_fraction: float = 0.10,
        hot_threshold: int = 2,
        reserved_write_cost_us: float = 0.2,
    ):
        self.engine = engine
        self.partition = partition
        self.app = app
        self.base_allocator = (
            base_allocator
            if base_allocator is not None
            else EntryAllocator(engine, partition, name=f"{app.name}.alloc")
        )
        self.reservation_high_occupancy = reservation_high_occupancy
        self.scan_period_us = scan_period_us
        self.scan_fraction = scan_fraction
        self.hot_threshold = hot_threshold
        self.reserved_write_cost_us = reserved_write_cost_us
        self.stats = AdaptiveAllocStats()
        self._prev_scan_set: Set[Page] = set()
        self._scanner = engine.spawn(self._scan_loop(), name=f"{app.name}.hotscan")

    # -- allocation ----------------------------------------------------------

    @property
    def under_pressure(self) -> bool:
        return self.partition.occupancy >= self.reservation_high_occupancy

    def obtain_entry(self, page: Page, core_id: int) -> Generator:
        """Swap-out path: reserved entries skip the allocator entirely."""
        if page.reserved_entry is not None:
            yield self.engine.timeout(self.reserved_write_cost_us)
            self.stats.reserved_swapouts += 1
            self.app.stats.reserved_swapouts += 1
            return page.reserved_entry
        start = self.engine.now
        if self.partition.free_count <= self.reserve_guard // 2:
            # Refill the free list in bulk before it runs dry, so each
            # allocation does not pay its own emergency scan.
            self._emergency_release(max(32, self.reserve_guard))
        for attempt in range(3):
            try:
                entry = yield from self.base_allocator.allocate(core_id)
                break
            except RuntimeError:
                if self._emergency_release(max(32, self.reserve_guard)) == 0:
                    rack = self.base_allocator.rack
                    if rack is None:
                        raise
                    # A dead or drained server's entries were retired
                    # and nothing replaced them: register one more
                    # chunk, as ``Rack.rebind`` does.
                    self.partition.grow(rack.config.chunk_entries)
        self.stats.locked_allocations += 1
        self.app.stats.alloc_stall_us += self.engine.now - start
        # Reserve whenever free entries remain: "we should trade off
        # space for time if an application has much available swap
        # space".  The hot-page scanner (not grant denial) is what frees
        # space back when the 75% trigger fires — a page that cycles
        # in and out is exactly the page that deserves its reservation.
        if self.partition.free_count > self.reserve_guard:
            self._grant_reservation(page, entry)
        return entry

    @property
    def reserve_guard(self) -> int:
        """Free entries kept un-reservable as writeback headroom."""
        return max(2, self.partition.n_entries // 32)

    def _emergency_release(self, n: int) -> int:
        """Partition exhausted: cancel reservations held by resident pages.

        Only resident pages qualify — a cold page's reserved entry holds
        its only data copy.  Returns the number of entries reclaimed.
        """
        released = 0
        for lru_list in (self.app.lru.active, self.app.lru.inactive):
            for page in list(lru_list.head_pages(len(lru_list))):
                if released >= n:
                    return released
                if page.resident and page.reserved_entry is not None:
                    self._remove_reservation(page, release_entry=True)
                    page.state = PageState.HOT_NO_RESERVATION
                    released += 1
        return released

    def _grant_reservation(self, page: Page, entry: SwapEntry) -> None:
        page.reserved_entry = entry
        entry.reserved = True
        self.stats.reservations_granted += 1
        if not page.resident:
            # The grant happens mid-eviction, after the on_evicted hook
            # labelled the page; refresh the Fig. 7 state.
            page.state = PageState.COLD_RESERVED

    def reserve_prepopulated(self, page: Page) -> None:
        """Setup hook: treat a prepopulated cold page's entry as reserved."""
        if page.swap_entry is None:
            raise ValueError(f"page {page.vpn:#x} has no entry to reserve")
        self._grant_reservation(page, page.swap_entry)
        page.state = PageState.COLD_RESERVED

    # -- map-in / eviction state upkeep --------------------------------------

    def on_mapped(self, page: Page) -> None:
        """Swap-in completed and the page is mapped (states 4/2 of Fig. 7)."""
        if page.reserved_entry is not None:
            # One-to-one mapping: the entry stays allocated & reserved;
            # its data remains valid until the page is dirtied, so a
            # clean re-eviction is free.
            page.state = PageState.RESIDENT_RESERVED
        else:
            if page.swap_entry is not None:
                self.base_allocator.free(page.swap_entry)
                page.swap_entry = None
            page.state = PageState.HOT_NO_RESERVATION

    def on_evicted(self, page: Page) -> None:
        page.state = (
            PageState.COLD_RESERVED
            if page.reserved_entry is not None
            else PageState.COLD_NO_RESERVATION
        )
        page.hot_score = 0

    def release_on_free(self, page: Page) -> None:
        """Drop everything when a page dies (region unmap)."""
        if page.reserved_entry is not None:
            self._remove_reservation(page, release_entry=page.resident)

    # -- hot-page scanning -------------------------------------------------

    def _scan_loop(self) -> Generator:
        while True:
            yield self.engine.timeout(self.scan_period_us)
            if not self.under_pressure:
                self._prev_scan_set.clear()
                continue
            self._scan_once()

    def _scan_once(self) -> None:
        """One pass over the head of the active list (§5.1)."""
        self.stats.scans += 1
        active = self.app.lru.active
        scan_len = max(8, int(len(active) * self.scan_fraction))
        current = set(active.head_pages(scan_len))
        for page in self._prev_scan_set - current:
            page.hot_score = 0
        for page in current:
            page.hot_score += 1
            if (
                page.hot_score >= self.hot_threshold
                and page.reserved_entry is not None
                and page.resident
            ):
                self._remove_reservation(page, release_entry=True)
                page.state = PageState.HOT_NO_RESERVATION
        self._prev_scan_set = current

    def _remove_reservation(self, page: Page, release_entry: bool) -> None:
        entry = page.reserved_entry
        page.reserved_entry = None
        entry.reserved = False
        self.stats.reservations_removed += 1
        if release_entry:
            # The entry returns to the free list; for a resident page the
            # stale remote data is abandoned with it.
            self.base_allocator.free(entry)
            if page.swap_entry is entry:
                page.swap_entry = None
