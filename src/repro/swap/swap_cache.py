"""The swap cache: unmapped pages between local memory and remote memory.

Pages land here when they are swapped in (demand or prefetch) and when
they are evicted but not yet written back.  In stock Linux the cache is a
set of radix trees shared by everyone; Canvas gives each cgroup a private
cache (default 32 MB) charged to its own memory budget, plus one global
cache for shared pages (§4).

The cache is keyed by swap-entry ID because that is what the faulting
path has in hand: the PTE of a swapped-out page stores the entry ID.

The hit/miss/prefetch counters recorded here are the raw material for the
paper's *prefetching contribution* (faults served by the cache over all
faults) and *accuracy* (prefetched pages that get used over all pages
prefetched) metrics in Table 5 and Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mem.page import Page
from repro.swap.entry import SwapEntry

__all__ = ["SwapCacheStats", "SwapCache"]


@dataclass
class SwapCacheStats:
    lookups: int = 0
    hits: int = 0
    prefetch_hits: int = 0
    insertions: int = 0
    prefetch_insertions: int = 0
    removals: int = 0
    shrink_evictions: int = 0
    evicted_unused_prefetches: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class SwapCache:
    """An LRU-ordered cache of unmapped pages, keyed by swap entry ID."""

    def __init__(self, name: str, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError(f"swap cache needs capacity > 0, got {capacity_pages}")
        self.name = name
        self.capacity_pages = capacity_pages
        self.stats = SwapCacheStats()
        # Insertion-ordered dict, LRU-first; a hit's promotion is a
        # single pop + re-insert.
        self._pages: Dict[int, Page] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, entry: SwapEntry) -> bool:
        return entry.entry_id in self._pages

    @property
    def full(self) -> bool:
        return len(self._pages) >= self.capacity_pages

    @property
    def overflow(self) -> int:
        """Number of pages beyond capacity (shrink target)."""
        return max(0, len(self._pages) - self.capacity_pages)

    def lookup(self, entry: SwapEntry) -> Optional[Page]:
        """Fault-path lookup.  Counts hit/miss and prefetch contribution.

        One hash probe: the pop both answers the membership question and
        detaches the page, which a hit re-inserts at the MRU end.
        """
        self.stats.lookups += 1
        pages = self._pages
        page = pages.pop(entry.entry_id, None)
        if page is None:
            return None
        pages[entry.entry_id] = page
        self.stats.hits += 1
        if page.prefetched:
            self.stats.prefetch_hits += 1
        return page

    def peek(self, entry: SwapEntry) -> Optional[Page]:
        """Lookup without touching statistics or LRU order."""
        return self._pages.get(entry.entry_id)

    def insert(self, entry: SwapEntry, page: Page, prefetched: bool = False) -> None:
        if entry.entry_id in self._pages:
            raise ValueError(
                f"{self.name}: entry {entry.entry_id} already cached"
            )
        page.in_swap_cache = True
        page.prefetched = prefetched
        self._pages[entry.entry_id] = page
        self.stats.insertions += 1
        if prefetched:
            self.stats.prefetch_insertions += 1

    def remove(self, entry: SwapEntry) -> Page:
        """Remove a page (it is being mapped into a process, or dropped)."""
        page = self._pages.pop(entry.entry_id)
        page.in_swap_cache = False
        self.stats.removals += 1
        return page

    def discard(self, entry: SwapEntry) -> Optional[Page]:
        page = self._pages.pop(entry.entry_id, None)
        if page is not None:
            page.in_swap_cache = False
            self.stats.removals += 1
        return page

    def shrink_candidates(
        self, n_pages: int, clean_only: bool = False
    ) -> List[Tuple[int, Page]]:
        """Pick up to ``n_pages`` LRU, unlocked pages for release.

        Locked pages (swap I/O in flight) are skipped, as the kernel does.
        With ``clean_only`` the dirty pages among those ``n_pages``
        candidates are filtered out too — the filter runs *after* the
        count cut, so the surviving set is exactly the pages a caller
        walking the unfiltered list and skipping dirty ones would have
        released.  When every candidate's flag bits live in one address
        space's flat arrays, the dirty filter is a single vectorized
        gather instead of one property read per page.  Pages are *not*
        removed here; pair with :meth:`release_many`.
        """
        candidates: List[Tuple[int, Page]] = []
        for entry_id, page in self._pages.items():
            if len(candidates) >= n_pages:
                break
            if page.locked:
                continue
            candidates.append((entry_id, page))
        if not clean_only or not candidates:
            return candidates
        home = candidates[0][1].flag_space
        if all(page.flag_space is home for _, page in candidates):
            vpns = np.fromiter(
                (page.vpn for _, page in candidates),
                dtype=np.int64,
                count=len(candidates),
            )
            clean = ~home.dirty_bits[vpns]
            return [c for c, ok in zip(candidates, clean.tolist()) if ok]
        return [c for c in candidates if not c[1].dirty]

    def release_many(self, entry_ids: List[int]) -> List[Page]:
        """Batch :meth:`release`: one pass, identical per-page accounting."""
        pages = self._pages
        stats = self.stats
        released: List[Page] = []
        for entry_id in entry_ids:
            page = pages.pop(entry_id)
            page.in_swap_cache = False
            stats.shrink_evictions += 1
            if page.prefetched:
                stats.evicted_unused_prefetches += 1
            released.append(page)
        return released

    def release(self, entry_id: int) -> Page:
        """Drop a page during a shrink pass (accounting differs from remove)."""
        page = self._pages.pop(entry_id)
        page.in_swap_cache = False
        self.stats.shrink_evictions += 1
        if page.prefetched:
            self.stats.evicted_unused_prefetches += 1
        return page

    def pages(self) -> List[Page]:
        return list(self._pages.values())
