"""Linked active/inactive LRU lists: the reference the generation-stamp LRU
is tested against.

The kernel keeps two lists per memory cgroup.  Newly faulted pages enter
the inactive list; a referenced inactive page is promoted to the active
list; reclaim shrinks the inactive tail and demotes active pages when the
inactive list runs short.  :class:`ActiveInactiveLRU` models exactly that
with two insertion-ordered dicts.  The simulator ages pages with
:class:`repro.mem.lru.GenerationLRU`; the lockstep tests in
``tests/test_mem_lru.py`` drive both with identical op sequences and
demand identical victims, orders and demote counts.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.mem.page import Page
from repro.obs.trace import LRU_DEMOTE

__all__ = ["LRUList", "ActiveInactiveLRU"]

#: Sentinel distinguishing "absent" from a stored None value.
_MISSING = object()


class LRUList:
    """An ordered list of pages, most-recently-used at the head.

    Backed by a plain insertion-ordered dict so every operation the
    simulation performs (insert, remove, promote, pop-tail, head scan)
    is O(1) or O(scan length); a promote is a single pop + re-insert,
    not a probe-then-move.
    """

    def __init__(self, name: str = "lru"):
        self.name = name
        # Dicts iterate oldest-first; we keep MRU at the *end* and treat
        # the end as the "head" of the kernel list.
        self._pages: Dict[Page, None] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: Page) -> bool:
        return page in self._pages

    def __iter__(self) -> Iterator[Page]:
        """Iterate LRU-first (tail to head)."""
        return iter(self._pages)

    def add_to_head(self, page: Page) -> None:
        if page in self._pages:
            raise ValueError(f"page {page.vpn:#x} already on {self.name}")
        self._pages[page] = None

    def move_to_head(self, page: Page) -> None:
        pages = self._pages
        pages[page] = pages.pop(page)

    def remove(self, page: Page) -> None:
        del self._pages[page]

    def discard(self, page: Page) -> bool:
        """Remove if present; returns whether the page was on the list."""
        sentinel = _MISSING
        return self._pages.pop(page, sentinel) is not sentinel

    def pop_tail(self) -> Optional[Page]:
        """Remove and return the least-recently-used page."""
        if not self._pages:
            return None
        page = next(iter(self._pages))
        del self._pages[page]
        return page

    def peek_tail(self) -> Optional[Page]:
        if not self._pages:
            return None
        return next(iter(self._pages))

    def head_pages(self, count: int) -> List[Page]:
        """The ``count`` most-recently-used pages, MRU first.

        This is the scan Canvas's hot-page detector performs on the active
        list (§5.1): "each scan identifies a set of pages from the head".
        """
        result: List[Page] = []
        for page in reversed(self._pages):
            if len(result) >= count:
                break
            result.append(page)
        return result


class ActiveInactiveLRU:
    """The two-list page aging structure used for reclaim decisions."""

    #: Consumers branch on this instead of isinstance: the flat
    #: generation-stamp variant advertises ``flat = True``.
    flat = False

    def __init__(self, name: str = "memcg"):
        self.name = name
        self.active = LRUList(f"{name}.active")
        self.inactive = LRUList(f"{name}.inactive")
        self.tracer = None

    def __len__(self) -> int:
        return len(self.active) + len(self.inactive)

    def __contains__(self, page: Page) -> bool:
        return page in self.active or page in self.inactive

    def insert(self, page: Page) -> None:
        """A newly faulted-in page starts on the inactive list."""
        self.inactive.add_to_head(page)

    def note_access(self, page: Page) -> None:
        """Promote a referenced inactive page; refresh an active one.

        Hot-path: called once per simulated resident access.  Each list
        is touched with a single hash probe (``pop``) instead of a
        membership test followed by a move/remove.
        """
        active = self.active._pages
        try:
            active[page] = active.pop(page)
            return
        except KeyError:
            pass
        inactive = self.inactive._pages
        try:
            inactive.pop(page)
        except KeyError:
            raise ValueError(f"page {page.vpn:#x} not on {self.name} LRU") from None
        active[page] = None

    def remove(self, page: Page) -> None:
        if not self.active.discard(page):
            self.inactive.remove(page)

    def discard(self, page: Page) -> bool:
        return self.active.discard(page) or self.inactive.discard(page)

    def balance(self, target_inactive_fraction: float = 0.5) -> int:
        """Demote active-tail pages until the inactive list holds at least
        ``target_inactive_fraction`` of all pages.  Returns demotions."""
        total = len(self)
        demoted = 0
        while total and len(self.inactive) < total * target_inactive_fraction:
            page = self.active.pop_tail()
            if page is None:
                break
            page.referenced = False
            self.inactive.add_to_head(page)
            demoted += 1
        if demoted and self.tracer is not None:
            self.tracer.emit(LRU_DEMOTE, self.name, 0, len(self.inactive), demoted)
        return demoted

    def select_victim(self) -> Optional[Page]:
        """Pick an eviction victim from the inactive tail.

        A referenced tail page gets a second chance (rotated to the
        inactive head with its referenced bit cleared), as in the kernel.
        """
        for _ in range(len(self.inactive) + 1):
            page = self.inactive.pop_tail()
            if page is None:
                break
            if page.referenced:
                page.referenced = False
                self.inactive.add_to_head(page)
                continue
            return page
        # Fall back to aging the active list.
        self.balance()
        page = self.inactive.pop_tail()
        return page

    def select_victims(
        self, n: int, stop: Optional[Callable[[Page], bool]] = None
    ) -> List[Page]:
        """Pop up to ``n`` victims at one simulated instant.

        Equivalent to ``n`` back-to-back :meth:`select_victim` calls.
        When ``stop`` is given the batch ends with the first victim for
        which ``stop(page)`` is true (that victim is included) — reclaim
        uses it to cut the batch at the first member whose processing
        passes simulated time, so every later pop happens after it.
        """
        victims: List[Page] = []
        while len(victims) < n:
            page = self.select_victim()
            if page is None:
                break
            victims.append(page)
            if stop is not None and stop(page):
                break
        return victims
