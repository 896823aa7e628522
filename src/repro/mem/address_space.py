"""Virtual address spaces and VMAs.

The simulation works at page granularity: an :class:`AddressSpace` maps
virtual page numbers (VPNs) to :class:`~repro.mem.page.Page` objects and
groups them into :class:`VMA` regions.  VMAs matter for two reasons in the
paper's setting: the kernel's readahead state is per-VMA (the "per-VMA
prefetching policy" in §6's Linux tuning), and shared VMAs force pages onto
the global swap path (§4, Handling of Shared Pages).

Flat kernel state: each space keeps VPN-indexed numpy arrays — a
residency bitmap, dirty/referenced bitvectors, last-access timestamps,
and LRU generation stamps with an active/inactive classification byte —
plus ``page_map``, the VPN-indexed list of its pages.  The consume core
(``BaseSwapSystem.consume_batch``) gathers and scatters these arrays for
whole runs of accesses; scalar ``Page`` accessors address the same
storage element-wise.  ``map_region`` is the only constructor of
:class:`~repro.mem.page.Page`, so every page has a home space whose
arrays hold its flags.  Guard/unmapped slots simply stay at their zero
values.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.mem.page import Page

__all__ = ["VMA", "AddressSpace"]


class VMA:
    """A contiguous virtual memory area."""

    def __init__(self, start_vpn: int, n_pages: int, name: str = "", shared: bool = False):
        if n_pages <= 0:
            raise ValueError(f"VMA needs at least one page, got {n_pages}")
        self.start_vpn = start_vpn
        self.n_pages = n_pages
        self.name = name
        self.shared = shared
        #: Scratch slot for per-VMA readahead window state (owned by the
        #: kernel prefetcher; kept here because the kernel stores it on the
        #: VMA too).
        self.readahead_state: Optional[object] = None

    @property
    def end_vpn(self) -> int:
        """One past the last VPN."""
        return self.start_vpn + self.n_pages

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    def vpns(self) -> Iterator[int]:
        return iter(range(self.start_vpn, self.end_vpn))

    def __repr__(self) -> str:  # pragma: no cover
        return f"VMA({self.name!r}, [{self.start_vpn:#x}, {self.end_vpn:#x}))"


class AddressSpace:
    """Per-process page-granular address space.

    Regions are laid out by a bump allocator with guard gaps so that VPNs
    from different regions never collide, mirroring mmap behaviour closely
    enough for access-pattern purposes.
    """

    #: Gap (in pages) left between consecutively mapped regions.
    GUARD_PAGES = 16

    def __init__(self, name: str):
        self.name = name
        self.vmas: List[VMA] = []
        self.pages: Dict[int, Page] = {}
        #: Every mapped page indexed by raw VPN (resident or not): the
        #: flat companion to ``pages`` that the fault slow path reads,
        #: replacing the dict probe per fault/prefetch proposal.
        #: Unmapped/guard slots stay None.
        self.page_map: List[Optional[Page]] = []
        #: Flat VPN-indexed kernel state (see module docstring).  The
        #: residency bitmap is kept in sync by the ``Page.resident``
        #: setter; dirty/referenced/timestamps are the only storage
        #: behind the ``Page`` accessors; ``lru_stamp``/``lru_where``
        #: belong to the generation-stamp LRU
        #: (:class:`repro.mem.lru.GenerationLRU`) when the owning app
        #: uses it.
        self.resident_bits = np.zeros(0, dtype=bool)
        self.dirty_bits = np.zeros(0, dtype=bool)
        self.referenced_bits = np.zeros(0, dtype=bool)
        self.last_access_arr = np.zeros(0, dtype=np.float64)
        self.lru_stamp = np.zeros(0, dtype=np.int64)
        self.lru_where = np.zeros(0, dtype=np.uint8)
        #: True once this space maps pages whose flag home is another
        #: space (``map_shared_from``): the consume core must not scatter
        #: into *this* space's flag arrays then, so it applies a run's
        #: side effects per page, and reclaim drains per entry.
        self.has_foreign_pages = False
        self._next_vpn = 0x1000  # skip the NULL guard area

    # -- mapping ---------------------------------------------------------

    def _grow_arrays(self, end_vpn: int) -> None:
        """Extend ``page_map`` and the flat arrays to cover ``end_vpn``."""
        if end_vpn > len(self.page_map):
            self.page_map.extend([None] * (end_vpn - len(self.page_map)))
        if end_vpn > len(self.resident_bits):
            grow = end_vpn - len(self.resident_bits)
            self.resident_bits = np.concatenate(
                (self.resident_bits, np.zeros(grow, dtype=bool))
            )
            self.dirty_bits = np.concatenate(
                (self.dirty_bits, np.zeros(grow, dtype=bool))
            )
            self.referenced_bits = np.concatenate(
                (self.referenced_bits, np.zeros(grow, dtype=bool))
            )
            self.last_access_arr = np.concatenate(
                (self.last_access_arr, np.zeros(grow, dtype=np.float64))
            )
            self.lru_stamp = np.concatenate(
                (self.lru_stamp, np.zeros(grow, dtype=np.int64))
            )
            self.lru_where = np.concatenate(
                (self.lru_where, np.zeros(grow, dtype=np.uint8))
            )

    def map_region(self, n_pages: int, name: str = "", shared: bool = False) -> VMA:
        """Map a fresh anonymous region and materialize its pages."""
        vma = VMA(self._next_vpn, n_pages, name=name, shared=shared)
        self._next_vpn = vma.end_vpn + self.GUARD_PAGES
        self.vmas.append(vma)
        self._grow_arrays(vma.end_vpn)
        pages = self.pages
        page_map = self.page_map
        for vpn in vma.vpns():
            page = Page(self, vpn)
            pages[vpn] = page
            page_map[vpn] = page
        self.resident_bits[vma.start_vpn : vma.end_vpn] = True
        return vma

    def map_shared_from(self, other: "AddressSpace", vma: VMA, name: str = "") -> VMA:
        """Map ``vma`` of ``other`` into this space, sharing its pages.

        The pages' mapcount is incremented, which routes them onto the
        global swap partition (§4).  The shared pages keep their flag
        home in ``other``, so this space's flag arrays no longer cover
        every mapped page — ``has_foreign_pages`` tells its consumers.
        The mirror keeps the owner's VPNs, so it may not overlap a
        region already mapped here, and later regions are laid out past
        it.
        """
        for own in self.vmas:
            if own.start_vpn < vma.end_vpn and vma.start_vpn < own.end_vpn:
                raise ValueError(f"{self.name}: {vma!r} overlaps mapped {own!r}")
        mirror = VMA(vma.start_vpn, vma.n_pages, name=name or vma.name, shared=True)
        vma.shared = True
        self.vmas.append(mirror)
        self._next_vpn = max(self._next_vpn, mirror.end_vpn + self.GUARD_PAGES)
        self._grow_arrays(vma.end_vpn)
        self.has_foreign_pages = True
        page_map = self.page_map
        for vpn in vma.vpns():
            page = other.pages[vpn]
            page.mapcount += 1
            self.pages[vpn] = page
            page_map[vpn] = page
            page.attach_space(self)
        return mirror

    # -- lookup ----------------------------------------------------------

    def page(self, vpn: int) -> Page:
        try:
            page = self.page_map[vpn] if vpn >= 0 else None
        except IndexError:
            page = None
        if page is None:
            raise KeyError(f"{self.name}: unmapped vpn {vpn:#x}")
        return page

    def page_or_none(self, vpn: int) -> Optional[Page]:
        """Flat-indexed ``pages.get``: None for unmapped or guard VPNs."""
        if 0 <= vpn < len(self.page_map):
            return self.page_map[vpn]
        return None

    def find_vma(self, vpn: int) -> Optional[VMA]:
        for vma in self.vmas:
            if vma.contains(vpn):
                return vma
        return None

    # -- statistics --------------------------------------------------------

    @property
    def total_pages(self) -> int:
        return len(self.pages)

    @property
    def resident_pages(self) -> int:
        """Resident pages mapped here, shared ones included."""
        return int(self.resident_bits.sum())

    def __repr__(self) -> str:  # pragma: no cover
        return f"AddressSpace({self.name!r}, {len(self.vmas)} VMAs, {len(self.pages)} pages)"
