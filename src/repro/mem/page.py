"""Pages and page metadata.

A :class:`Page` models one 4 KB virtual page together with the kernel
metadata the swap path reads and writes: the PTE's swap entry (set while
the page is swapped out), the ``struct page`` fields Canvas adds (the
reserved swap-entry ID of §5.1), residency/dirty/referenced bits, the
mapcount used to route shared pages to the global swap partition, and the
page lock held while swap I/O is in flight.

Flat-state layout: once a page is attached to an address space, its
dirty/referenced bits, access timestamp, and residency bit live in that
space's flat numpy arrays (indexed by VPN) rather than in per-object
slots.  The consume core updates whole runs of those arrays with a
handful of vectorized ops; the scalar accessors below read and write
the same storage, so both always see one source of truth.  A
free-standing page (no space attached, as unit tests build them) falls
back to plain per-object slots.
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
        "_spaces",
        "_flags",
        "_dirty",
        "_referenced",
        "_last_access_us",
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

    def __init__(self, vpn: int, owner_name: str = "", mapcount: int = 1):
        self.page_id: int = next(_page_ids)
        self.vpn = vpn
        self.owner_name = owner_name
        #: Address spaces beyond the flag home also mirroring this page's
        #: residency (see ``resident``).  Almost always empty — only
        #: shared mappings populate it — so the hot setter touches the
        #: home space directly and skips the loop.
        self._spaces: tuple = ()
        #: The space whose flat arrays hold this page's dirty/referenced/
        #: timestamp state (the first space attached); None while the page
        #: is free-standing and the ``_dirty``/... slots are authoritative.
        self._flags = None
        self._resident = True
        self._dirty = False
        self._referenced = False
        self._last_access_us = 0.0
        self.mapcount = mapcount
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
        space = self._flags
        if space is None:
            return self._dirty
        return bool(space.dirty_bits[self.vpn])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        space = self._flags
        if space is None:
            self._dirty = value
        else:
            space.dirty_bits[self.vpn] = value

    @property
    def referenced(self) -> bool:
        space = self._flags
        if space is None:
            return self._referenced
        return bool(space.referenced_bits[self.vpn])

    @referenced.setter
    def referenced(self, value: bool) -> None:
        space = self._flags
        if space is None:
            self._referenced = value
        else:
            space.referenced_bits[self.vpn] = value

    @property
    def last_access_us(self) -> float:
        space = self._flags
        if space is None:
            return self._last_access_us
        return float(space.last_access_arr[self.vpn])

    @last_access_us.setter
    def last_access_us(self, value: float) -> None:
        space = self._flags
        if space is None:
            self._last_access_us = value
        else:
            space.last_access_arr[self.vpn] = value

    @property
    def resident(self) -> bool:
        return self._resident

    @resident.setter
    def resident(self, value: bool) -> None:
        """Flip residency, keeping every mapping space's O(1) residency
        map and bitmap (the batched fast path's classification arrays)
        and incremental resident counter in sync."""
        changed = value != self._resident
        self._resident = value
        entry = self if value else None
        home = self._flags
        if home is not None:
            vpn = self.vpn
            home.resident_map[vpn] = entry
            home.resident_bits[vpn] = value
            if changed:
                home._resident_count += 1 if value else -1
            if self._spaces:
                for space in self._spaces:
                    space.resident_map[vpn] = entry
                    space.resident_bits[vpn] = value
                    if changed:
                        space._resident_count += 1 if value else -1

    def attach_space(self, space) -> None:
        """Register an address space whose residency map mirrors this page.

        The first attached space becomes the page's flag home: the
        current slot-held dirty/referenced/timestamp values migrate into
        its flat arrays and the arrays become authoritative.  Later
        spaces (shared mappings) land in ``_spaces`` and are mirrored by
        the residency setter's slow loop.
        """
        vpn = self.vpn
        if self._flags is None:
            self._flags = space
            space.dirty_bits[vpn] = self._dirty
            space.referenced_bits[vpn] = self._referenced
            space.last_access_arr[vpn] = self._last_access_us
        else:
            self._spaces = self._spaces + (space,)
        space.resident_map[vpn] = self if self._resident else None
        space.resident_bits[vpn] = self._resident
        if self._resident:
            space._resident_count += 1

    @property
    def flag_space(self):
        """The address space whose flat arrays home this page's flag bits
        (None for a free-standing page).  Lets batch consumers (the swap
        cache's vectorized shrink scan) gather ``dirty_bits`` for a run
        of same-home pages in one numpy op instead of one property call
        per page."""
        return self._flags

    @property
    def shared(self) -> bool:
        """Shared pages (mapcount > 1) must use the global swap path (§4)."""
        return self.mapcount > 1

    @property
    def has_reservation(self) -> bool:
        return self.reserved_entry is not None

    def touch(self, now_us: float, write: bool = False) -> None:
        """Record an access: set referenced (and dirty for writes)."""
        space = self._flags
        if space is None:
            self._referenced = True
            self._last_access_us = now_us
            if write:
                self._dirty = True
        else:
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
