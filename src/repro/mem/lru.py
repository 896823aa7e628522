"""Per-cgroup page aging, mirroring the kernel's active/inactive split.

The kernel keeps two lists per memory cgroup.  Newly faulted pages enter
the inactive list; a referenced inactive page is promoted to the active
list; reclaim shrinks the inactive tail and demotes active pages when the
inactive list runs short.  Canvas's hot-page detector (§5.1) periodically
scans the *head* of the active list, so the active view exposes that
scan.

:class:`GenerationLRU` stores that ordering as generation stamps over the
address space's flat VPN-indexed arrays.  A linked two-list
implementation in ``tests/lru_reference.py`` is the lockstep reference it
is tested against.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.mem.page import Page
from repro.obs.trace import LRU_DEMOTE, LRU_EPOCH

__all__ = ["GenerationLRU"]

#: Values of ``AddressSpace.lru_where``: not on the LRU, on the inactive
#: list, on the active list.
LRU_NONE, LRU_INACTIVE, LRU_ACTIVE = 0, 1, 2


class _GenerationView:
    """Read-only list view over one ``lru_where`` class (active/inactive).

    Serves the structure's list-shaped consumers — the hot-page
    detector's ``head_pages`` scan, emergency reservation release, and
    tests — by materializing stamp order on demand.
    """

    __slots__ = ("_lru", "_which", "name")

    def __init__(self, lru: "GenerationLRU", which: int, name: str):
        self._lru = lru
        self._which = which
        self.name = name

    def _vpns_lru_first(self) -> np.ndarray:
        space = self._lru.space
        sel = np.flatnonzero(space.lru_where == self._which)
        order = np.argsort(space.lru_stamp[sel], kind="stable")
        return sel[order]

    def __len__(self) -> int:
        return self._lru._count_of(self._which)

    def __contains__(self, page: Page) -> bool:
        where = self._lru.space.lru_where
        vpn = page.vpn
        return vpn < len(where) and where[vpn] == self._which

    def __iter__(self) -> Iterator[Page]:
        """Iterate LRU-first (lowest stamp first)."""
        pages = self._lru.space.pages
        return (pages[vpn] for vpn in self._vpns_lru_first().tolist())

    def peek_tail(self) -> Optional[Page]:
        vpns = self._vpns_lru_first()
        if not len(vpns):
            return None
        return self._lru.space.pages[int(vpns[0])]

    def head_pages(self, count: int) -> List[Page]:
        """The ``count`` most-recently-stamped pages, MRU first."""
        if count <= 0:
            return []
        vpns = self._vpns_lru_first()[::-1][:count]
        pages = self._lru.space.pages
        return [pages[vpn] for vpn in vpns.tolist()]


class GenerationLRU:
    """Flat generation-stamp LRU over an address space's arrays.

    Stores the active/inactive ordering as a monotonically increasing
    stamp per VPN plus a one-byte active/inactive classification
    (``AddressSpace.lru_stamp`` / ``lru_where``) instead of linked-list
    nodes.  Every ordering event — insert, promote, refresh, rotate,
    demote — writes a fresh stamp, so ascending stamp order *is* a linked
    two-list LRU's tail-to-head order and both pick identical eviction
    victims on identical access sequences (property-tested in
    ``tests/test_mem_lru.py`` against ``tests/lru_reference.py``).

    The payoff is the vectorized consume core: ``note_access_run``
    retires a whole run of promotions/refreshes as two vectorized
    scatters, where a linked structure pays a dict probe per access.
    Reclaim keeps victim order as one append-fed candidate queue: every
    transition into the inactive class takes a fresh stamp and appends
    its ``(stamp, vpn)`` entry, so the queue is sorted by construction
    and entries are revalidated (still inactive, stamp unchanged) at
    pop time — eviction never scans the whole array to find the
    lowest-stamp inactive page, and a drain costs the entries it walks,
    not the queue's length.

    Epochs: when the stamp counter reaches ``epoch_limit`` the stamps of
    all on-LRU pages are renormalized to their ranks (an ``LRU_EPOCH``
    trace record marks it).  Order is preserved exactly; the limit only
    exists so the counter cannot grow without bound over arbitrarily
    long co-runs, and is test-settable to exercise the rollover.
    """

    def __init__(
        self,
        space,
        name: str = "memcg",
        epoch_limit: int = 1 << 62,
    ):
        self.space = space
        self.name = name
        self.tracer = None
        self.epoch_limit = epoch_limit
        self._gen = 0
        #: Completed epoch renormalizations.
        self.epochs = 0
        #: Pending eviction candidates: parallel stamp/VPN sequences in
        #: ascending stamp order, consumed from ``_vq_pos``.  Every
        #: transition *into* the inactive class (insert, demote,
        #: second-chance rotation) takes a fresh — monotonically
        #: increasing — stamp, so appending at the back keeps the queue
        #: sorted for free.  Stale entries (promoted, removed or rotated
        #: pages) are dropped by pop-time revalidation.  ``array('q')``
        #: keeps an entry at 8 bytes per field.
        self._vq_stamps = array("q")
        self._vq_vpns = array("q")
        self._vq_pos = 0
        #: True while the queue provably holds an entry for every
        #: inactive page at its current stamp.  Cleared when the append
        #: protocol is invalidated (epoch renormalization compacts the
        #: stamps, and at construction, when the space may hold inactive
        #: pages this LRU never saw); appends pause while False and the
        #: next drain rebuilds with one exhaustive refill scan.
        self._vq_complete = False
        #: Incremental class sizes, so balance/reclaim never rescan the
        #: whole ``lru_where`` array.  Scalar mutators maintain them
        #: exactly; the vectorized ``note_access_run`` (whose duplicate
        #: VPNs make an exact delta cost more than it saves) just marks
        #: them stale, and the next reader recounts once.
        self._n_active = 0
        self._n_inactive = 0
        self._counts_stale = False
        self.active = _GenerationView(self, LRU_ACTIVE, f"{name}.active")
        self.inactive = _GenerationView(self, LRU_INACTIVE, f"{name}.inactive")

    def _count_of(self, which: int) -> int:
        if self._counts_stale:
            self._recount()
        return self._n_active if which == LRU_ACTIVE else self._n_inactive

    def _recount(self) -> None:
        where = self.space.lru_where
        self._n_inactive = int(np.count_nonzero(where == LRU_INACTIVE))
        self._n_active = int(np.count_nonzero(where == LRU_ACTIVE))
        self._counts_stale = False

    # -- stamping ------------------------------------------------------

    def _take_stamps(self, n: int) -> int:
        """Reserve ``n`` consecutive stamps; renormalize at the epoch edge."""
        if self._gen + n > self.epoch_limit:
            self._renormalize()
        start = self._gen
        self._gen = start + n
        return start

    def _renormalize(self) -> None:
        """Compact stamps of on-LRU pages to their ranks (order-preserving)."""
        space = self.space
        on_lru = np.flatnonzero(space.lru_where != LRU_NONE)
        order = np.argsort(space.lru_stamp[on_lru], kind="stable")
        space.lru_stamp[on_lru[order]] = np.arange(len(on_lru), dtype=np.int64)
        old_gen = self._gen
        self._gen = len(on_lru)
        # Queued stamps are stale now.  Drop the queue and mark it
        # incomplete: appends pause until the next drain rebuilds it
        # from the compacted stamps with one refill scan.
        self._vq_clear()
        self._vq_complete = False
        self.epochs += 1
        if self.tracer is not None:
            self.tracer.emit(LRU_EPOCH, self.name, 0, len(on_lru), old_gen)

    # -- membership ----------------------------------------------------

    def __len__(self) -> int:
        if self._counts_stale:
            self._recount()
        return self._n_active + self._n_inactive

    def __contains__(self, page: Page) -> bool:
        where = self.space.lru_where
        vpn = page.vpn
        return vpn < len(where) and where[vpn] != LRU_NONE

    def insert(self, page: Page) -> None:
        """A newly faulted-in page starts on the inactive list."""
        space = self.space
        vpn = page.vpn
        if space.lru_where[vpn] != LRU_NONE:
            raise ValueError(f"page {vpn:#x} already on {self.name}.inactive")
        stamp = self._take_stamps(1)
        space.lru_where[vpn] = LRU_INACTIVE
        space.lru_stamp[vpn] = stamp
        self._n_inactive += 1
        if self._vq_complete:
            queue = self._vq_vpns
            queue.append(vpn)
            self._vq_stamps.append(stamp)
            if len(queue) > (len(space.lru_where) << 2) and len(queue) > 8192:
                self._vq_compact()

    def note_access(self, page: Page) -> None:
        """Promote a referenced inactive page; refresh an active one."""
        space = self.space
        vpn = page.vpn
        prev = space.lru_where[vpn]
        if prev == LRU_NONE:
            raise ValueError(f"page {vpn:#x} not on {self.name} LRU")
        stamp = self._take_stamps(1)
        space.lru_where[vpn] = LRU_ACTIVE
        space.lru_stamp[vpn] = stamp
        if prev == LRU_INACTIVE:
            self._n_inactive -= 1
            self._n_active += 1

    def note_access_run(self, vpns: np.ndarray) -> None:
        """Vectorized :meth:`note_access` for a run of resident accesses.

        ``vpns`` is in access order; duplicate VPNs resolve to the last
        occurrence's stamp (numpy scatter semantics), exactly the stamp a
        per-access loop would leave behind, and the stamp counter
        advances once per promoted access.  In a space with shared
        mappings, a resident page this LRU does not hold (another app
        mapped it in) is skipped: the LRU it sits on is the only one
        that ages it, as Linux keeps a shared anonymous page on one
        memcg's LRU and other mappers only set its referenced bit.
        """
        space = self.space
        if space.has_foreign_pages:
            vpns = vpns[space.lru_where[vpns] != LRU_NONE]
        n = len(vpns)
        if not n:
            return
        start = self._take_stamps(n)
        space.lru_stamp[vpns] = np.arange(start, start + n, dtype=np.int64)
        space.lru_where[vpns] = LRU_ACTIVE
        self._counts_stale = True

    def remove(self, page: Page) -> None:
        space = self.space
        vpn = page.vpn
        prev = space.lru_where[vpn]
        if prev == LRU_NONE:
            raise KeyError(page)
        space.lru_where[vpn] = LRU_NONE
        if prev == LRU_INACTIVE:
            self._n_inactive -= 1
        else:
            self._n_active -= 1

    def discard(self, page: Page) -> bool:
        where = self.space.lru_where
        vpn = page.vpn
        if vpn >= len(where):
            return False
        prev = where[vpn]
        if prev == LRU_NONE:
            return False
        where[vpn] = LRU_NONE
        if prev == LRU_INACTIVE:
            self._n_inactive -= 1
        else:
            self._n_active -= 1
        return True

    # -- aging and reclaim ---------------------------------------------

    def balance(self, target_inactive_fraction: float = 0.5) -> int:
        """Demote lowest-stamp active pages until the inactive list holds
        at least ``target_inactive_fraction`` of all pages.  Mirrors the
        linked structure's loop exactly: the demote count comes from the
        same float comparison sequence, pages demote in ascending stamp
        order with fresh stamps, and referenced bits are cleared."""
        space = self.space
        where = space.lru_where
        if self._counts_stale:
            self._recount()
        n_inactive = self._n_inactive
        n_active = self._n_active
        total = n_active + n_inactive
        demoted = 0
        while (
            total
            and (n_inactive + demoted) < total * target_inactive_fraction
            and demoted < n_active
        ):
            demoted += 1
        if not demoted:
            return 0
        act = np.flatnonzero(where == LRU_ACTIVE)
        stamps = space.lru_stamp[act]
        if demoted < len(act):
            part = np.argpartition(stamps, demoted - 1)[:demoted]
            victims = act[part][np.argsort(stamps[part], kind="stable")]
        else:
            victims = act[np.argsort(stamps, kind="stable")]
        pages = space.pages
        for vpn in victims.tolist():
            # Referenced clears via the page accessor so shared pages
            # whose flag home is another space behave like the linked
            # structure's ``page.referenced = False``.
            pages[vpn].referenced = False
            stamp = self._take_stamps(1)
            where[vpn] = LRU_INACTIVE
            space.lru_stamp[vpn] = stamp
            if self._vq_complete:
                # Queue the demoted page (skipped once a stamp take hits
                # the epoch edge; the next drain's refill rebuilds).
                self._vq_stamps.append(stamp)
                self._vq_vpns.append(vpn)
        self._n_inactive += demoted
        self._n_active -= demoted
        if self.tracer is not None:
            self.tracer.emit(
                LRU_DEMOTE, self.name, 0, n_inactive + demoted, demoted
            )
        return demoted

    def _refill_victim_queue(self) -> None:
        """Rebuild the queue from every inactive page.

        Steady state never gets here: each transition into the inactive
        class appends its own queue entry, so the queue only empties
        when the inactive set does.  The full-array scan survives for
        the two cases that invalidate the append protocol — an epoch
        renormalization (stamps compacted, queue dropped) and an LRU
        bootstrapped over a space with pre-existing inactive pages.  The
        rebuild must be exhaustive: later appends carry higher stamps,
        so any inactive page left out here would be passed over in
        favor of younger candidates.
        """
        space = self.space
        inactive = np.flatnonzero(space.lru_where == LRU_INACTIVE)
        stamps = space.lru_stamp[inactive]
        order = np.argsort(stamps, kind="stable")
        self._vq_stamps = array("q", stamps[order].tobytes())
        vpns = inactive[order].astype(np.int64, copy=False)
        self._vq_vpns = array("q", vpns.tobytes())
        self._vq_pos = 0

    def _vq_clear(self) -> None:
        self._vq_stamps = array("q")
        self._vq_vpns = array("q")
        self._vq_pos = 0

    def _vq_compact(self) -> None:
        """Drop the consumed prefix and stale entries (vectorized).

        Revalidation at pop time would skip them anyway; compaction just
        bounds the queue's memory when a space inserts far more than it
        evicts.  Surviving entries keep their relative (ascending stamp)
        order, so drain results are unchanged.
        """
        space = self.space
        pos = self._vq_pos
        stamps = np.frombuffer(self._vq_stamps, dtype=np.int64)[pos:]
        vpns = np.frombuffer(self._vq_vpns, dtype=np.int64)[pos:]
        keep = (space.lru_where[vpns] == LRU_INACTIVE) & (
            space.lru_stamp[vpns] == stamps
        )
        self._vq_stamps = array("q", stamps[keep].tobytes())
        self._vq_vpns = array("q", vpns[keep].tobytes())
        self._vq_pos = 0

    def _drain(
        self, need: int, out: List[Page], stop: Optional[Callable[[Page], bool]]
    ) -> bool:
        """Pop up to ``need`` victims into ``out`` in one queue walk.

        Each entry is revalidated (still inactive, stamp unchanged).  A
        referenced candidate gets its second chance: referenced cleared,
        a fresh stamp, and a new entry at the back of the queue, so the
        same walk revisits it after every older candidate — an
        all-referenced queue converges exactly like the linked full
        rotation (the first-rotated page, now lowest-stamped and clean,
        wins).  An unreferenced candidate is popped.

        Returns True once the batch is done: ``need`` victims popped, or
        ``stop`` flagged the last one.  Returns False when the queue is
        walked empty (it is cleared) or when a rotation's stamp
        renormalized the epoch, which drops the queue and marks it
        incomplete; either way ``select_victims`` decides what follows.
        ``stop`` must not mutate the LRU.
        """
        space = self.space
        where = space.lru_where
        stamp_arr = space.lru_stamp
        pages = space.pages
        stamps = self._vq_stamps
        vpns = self._vq_vpns
        pos = self._vq_pos
        while pos < len(vpns):
            stamp = stamps[pos]
            vpn = vpns[pos]
            pos += 1
            if where[vpn] != LRU_INACTIVE or stamp_arr[vpn] != stamp:
                continue  # promoted, removed, or rotated since queued
            page = pages[vpn]
            if page.referenced:
                page.referenced = False
                fresh = self._take_stamps(1)
                stamp_arr[vpn] = fresh  # rotate to head
                if not self._vq_complete:
                    return False  # renormalized: the queue was dropped
                stamps.append(fresh)
                vpns.append(vpn)
                continue
            where[vpn] = LRU_NONE
            self._n_inactive -= 1
            out.append(page)
            need -= 1
            if not need or (stop is not None and stop(page)):
                if pos < len(vpns):
                    self._vq_pos = pos
                else:
                    self._vq_clear()
                return True
        self._vq_clear()
        return False

    def select_victims(
        self, n: int, stop: Optional[Callable[[Page], bool]] = None
    ) -> List[Page]:
        """Pop up to ``n`` eviction victims at one simulated instant.

        Second chance, as in the linked structure: a referenced candidate
        is rotated to the head (fresh stamp, referenced cleared) instead
        of evicted.  Victims come off the append-fed candidate queue —
        new stamps are always higher than queued ones, so the queue
        front, revalidated against promotion/removal/rotation, is always
        the current lowest-stamp inactive page.

        An incomplete queue (fresh LRU, or an epoch renormalization —
        possibly one a rotation in this very call triggered) is rebuilt
        with one exhaustive refill scan before draining on.  Only a
        complete queue walked empty means an empty inactive set; then
        the active list is aged, and its demoted pages arrive on the
        queue with referenced cleared, so the next walk pops the oldest.
        The call ends early when aging demotes nothing (the LRU is
        empty).

        ``n`` victims from one call equal ``n`` calls of
        ``select_victims(1)`` with no LRU mutation in between.  When
        ``stop`` is given the batch ends with the first victim for which
        ``stop(page)`` is true (that victim included): reclaim cuts at
        the first member whose processing passes simulated time, so every
        later pop happens after it.
        """
        victims: List[Page] = []
        while len(victims) < n:
            if not self._vq_complete:
                # The refill takes no stamps, so completeness holds the
                # moment it returns.
                self._vq_complete = True
                self._refill_victim_queue()
            if self._drain(n - len(victims), victims, stop):
                break
            if self._vq_complete and not self.balance():
                break
        return victims
