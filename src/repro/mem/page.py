"""Pages and page metadata.

A :class:`Page` models one 4 KB virtual page together with the kernel
metadata the swap path reads and writes: the PTE's swap entry (set while
the page is swapped out), the ``struct page`` fields Canvas adds (the
reserved swap-entry ID of §5.1), residency/dirty/referenced bits, the
mapcount used to route shared pages to the global swap partition, and the
page lock held while swap I/O is in flight.

Flat-state layout: a page is always built by its owner's
``AddressSpace.map_region`` and keeps its dirty/referenced bits and
access timestamp in that home space's flat numpy arrays (indexed by
VPN), never in per-object slots.  The consume core updates whole runs
of those arrays with a handful of vectorized ops; the scalar accessors
below read and write the same storage, so both always see one source of
truth.  Residency is kept twice: in a ``_resident`` slot, because the
fault path reads it on every fault and a slot read is about 3x cheaper
than a numpy element read, and in the residency bitmap of every space
that maps the page, which the setter updates on each flip.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.swap.entry import SwapEntry

__all__ = ["PAGE_SIZE", "PAGE_SHIFT", "PageState", "Page"]

PAGE_SIZE = 4096
PAGE_SHIFT = 12

_page_ids = itertools.count()


class PageState(enum.Enum):
    """States of the Canvas §5.1 page/reservation FSM (Fig. 7).

    The paper's state machine distinguishes pages by (a) whether they are
    resident or evicted and (b) whether they carry a reserved swap entry
    in their ``struct page``:

    * ``HOT_NO_RESERVATION``  - resident, reservation removed (state 3)
    * ``RESIDENT_RESERVED``   - resident with a reserved entry (state 4)
    * ``COLD_NO_RESERVATION`` - evicted, no reservation: swap-out goes
      through the lock-protected allocator (state 2)
    * ``COLD_RESERVED``       - evicted, entry ID remembered: swap-out is
      lock-free (state 5)
    * ``NEW``                 - never swapped out (state 1)
    """

    NEW = "new"
    RESIDENT_RESERVED = "resident_reserved"
    HOT_NO_RESERVATION = "hot_no_reservation"
    COLD_RESERVED = "cold_reserved"
    COLD_NO_RESERVATION = "cold_no_reservation"


class Page:
    """One virtual 4 KB page and its kernel-visible metadata."""

    __slots__ = (
        "page_id",
        "vpn",
        "owner_name",
        "_resident",
        "_home",
        "_spaces",
        "mapcount",
        "swap_entry",
        "reserved_entry",
        "in_swap_cache",
        "locked",
        "state",
        "hot_score",
        "prefetched",
        "prefetched_at_us",
        "prefetch_timestamp_us",
    )

    def __init__(self, space, vpn: int):
        self.page_id: int = next(_page_ids)
        self.vpn = vpn
        self.owner_name = space.name
        #: The space that maps this page first (its owner): its flat
        #: arrays hold the page's dirty/referenced/timestamp state.
        self._home = space
        #: Address spaces beyond the home also mirroring this page's
        #: residency (see ``resident``).  Almost always empty — only
        #: shared mappings populate it — so the hot setter touches the
        #: home space directly and skips the loop.
        self._spaces: tuple = ()
        #: A new page is resident; ``map_region`` sets its bitmap bits.
        self._resident = True
        self.mapcount = 1
        #: PTE contents while swapped out (None when resident).
        self.swap_entry: Optional["SwapEntry"] = None
        #: Canvas: entry ID remembered in struct page (§5.1 reservation).
        self.reserved_entry: Optional["SwapEntry"] = None
        self.in_swap_cache = False
        #: Page lock held while swap I/O is outstanding.
        self.locked = False
        self.state = PageState.NEW
        #: Consecutive LRU-head scans in which this page appeared (§5.1).
        self.hot_score = 0
        #: True if the page currently in the swap cache arrived via prefetch.
        self.prefetched = False
        self.prefetched_at_us = 0.0
        #: Timestamp written when a prefetch for this page entered a VQP
        #: (§5.3 stale-prefetch detection); None when no prefetch pending.
        self.prefetch_timestamp_us: Optional[float] = None

    # -- flat-array-backed flag accessors --------------------------------

    @property
    def dirty(self) -> bool:
        return bool(self._home.dirty_bits[self.vpn])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._home.dirty_bits[self.vpn] = value

    @property
    def referenced(self) -> bool:
        return bool(self._home.referenced_bits[self.vpn])

    @referenced.setter
    def referenced(self, value: bool) -> None:
        self._home.referenced_bits[self.vpn] = value

    @property
    def last_access_us(self) -> float:
        return float(self._home.last_access_arr[self.vpn])

    @last_access_us.setter
    def last_access_us(self, value: float) -> None:
        self._home.last_access_arr[self.vpn] = value

    @property
    def resident(self) -> bool:
        return self._resident

    @resident.setter
    def resident(self, value: bool) -> None:
        """Flip residency, keeping every mapping space's residency bitmap
        (the batched fast path's classification array) in sync."""
        self._resident = value
        vpn = self.vpn
        self._home.resident_bits[vpn] = value
        if self._spaces:
            for space in self._spaces:
                space.resident_bits[vpn] = value

    def attach_space(self, space) -> None:
        """Mirror this page's residency into ``space``, which maps it
        shared (``AddressSpace.map_shared_from``); its flag bits stay in
        the home space."""
        self._spaces = self._spaces + (space,)
        space.resident_bits[self.vpn] = self._resident

    @property
    def flag_space(self):
        """The address space whose flat arrays home this page's flag
        bits.  Lets batch consumers (the swap cache's vectorized shrink
        scan) gather ``dirty_bits`` for a run of same-home pages in one
        numpy op instead of one property call per page."""
        return self._home

    @property
    def shared(self) -> bool:
        """Shared pages (mapcount > 1) must use the global swap path (§4)."""
        return self.mapcount > 1

    @property
    def has_reservation(self) -> bool:
        return self.reserved_entry is not None

    def touch(self, now_us: float, write: bool = False) -> None:
        """Record an access: set referenced (and dirty for writes)."""
        space = self._home
        vpn = self.vpn
        space.referenced_bits[vpn] = True
        space.last_access_arr[vpn] = now_us
        if write:
            space.dirty_bits[vpn] = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Page(vpn={self.vpn:#x}, owner={self.owner_name!r}, "
            f"resident={self.resident}, state={self.state.value})"
        )
