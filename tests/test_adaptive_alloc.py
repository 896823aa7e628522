"""Unit tests for the adaptive swap-entry allocation manager (§5.1)."""

import pytest

from repro.core.adaptive_alloc import AdaptiveSwapManager
from repro.kernel import AppContext, CgroupConfig
from repro.mem import PageState
from repro.sim import Engine
from repro.swap import SwapPartition
from tests.conftest import mapped_pages


def make_manager(n_entries=128, high=0.75, **kwargs):
    engine = Engine()
    partition = SwapPartition("p", n_entries)
    app = AppContext(engine, CgroupConfig(name="a", n_cores=4, local_memory_pages=64))
    manager = AdaptiveSwapManager(
        engine, partition, app, reservation_high_occupancy=high, **kwargs
    )
    return engine, partition, app, manager


def obtain(engine, manager, page, core=0):
    result = []

    def proc():
        entry = yield from manager.obtain_entry(page, core)
        result.append(entry)

    engine.spawn(proc())
    engine.run(until=engine.now + 1_000_000)
    return result[0]


def test_first_swapout_allocates_and_reserves():
    engine, partition, app, manager = make_manager()
    (page,) = mapped_pages(1, app.space)
    entry = obtain(engine, manager, page)
    assert page.reserved_entry is entry
    assert entry.reserved
    assert manager.stats.locked_allocations == 1
    assert manager.stats.reservations_granted == 1


def test_second_swapout_is_lock_free():
    engine, partition, app, manager = make_manager()
    (page,) = mapped_pages(1, app.space)
    first = obtain(engine, manager, page)
    second = obtain(engine, manager, page)
    assert second is first  # same remote cell reused
    assert manager.stats.reserved_swapouts == 1
    assert manager.stats.locked_allocations == 1
    assert app.stats.reserved_swapouts == 1


def test_no_reservation_granted_near_exhaustion():
    engine, partition, app, manager = make_manager(n_entries=16, high=0.5)
    # Drain the partition down to the writeback-headroom guard.
    while partition.free_count > manager.reserve_guard + 1:
        partition.pop_free()
    (page,) = mapped_pages(1, app.space)
    obtain(engine, manager, page)
    assert page.reserved_entry is None
    assert manager.stats.reservations_granted == 0


def test_reservation_still_granted_under_scanner_pressure():
    """The 75% trigger starts the hot-page scanner; it does not deny
    grants while free entries remain (a cycling page deserves one)."""
    engine, partition, app, manager = make_manager(n_entries=64, high=0.25)
    for _ in range(20):
        partition.pop_free()
    assert manager.under_pressure  # scanner active
    (page,) = mapped_pages(1, app.space)
    obtain(engine, manager, page)
    assert page.reserved_entry is not None


def test_on_mapped_keeps_reserved_entry():
    engine, partition, app, manager = make_manager()
    (page,) = mapped_pages(1, app.space)
    entry = obtain(engine, manager, page)
    page.swap_entry = entry
    manager.on_mapped(page)
    assert page.state is PageState.RESIDENT_RESERVED
    assert page.swap_entry is entry
    assert entry.allocated


def test_on_mapped_frees_unreserved_entry():
    engine, partition, app, manager = make_manager(n_entries=16, high=0.0)
    while partition.free_count > manager.reserve_guard + 1:
        partition.pop_free()  # near exhaustion: grants denied
    (page,) = mapped_pages(1, app.space)
    entry = obtain(engine, manager, page)
    assert page.reserved_entry is None
    page.swap_entry = entry
    manager.on_mapped(page)
    assert page.swap_entry is None
    assert not entry.allocated
    assert page.state is PageState.HOT_NO_RESERVATION


def test_on_evicted_state_transitions():
    engine, partition, app, manager = make_manager()
    (reserved_page,) = mapped_pages(1, app.space)
    obtain(engine, manager, reserved_page)
    manager.on_evicted(reserved_page)
    assert reserved_page.state is PageState.COLD_RESERVED

    (bare_page,) = mapped_pages(1, app.space)
    manager.on_evicted(bare_page)
    assert bare_page.state is PageState.COLD_NO_RESERVATION


def test_reserve_prepopulated():
    engine, partition, app, manager = make_manager()
    (page,) = mapped_pages(1, app.space)
    entry = partition.pop_free()
    page.swap_entry = entry
    manager.reserve_prepopulated(page)
    assert page.reserved_entry is entry
    assert page.state is PageState.COLD_RESERVED


def test_reserve_prepopulated_requires_entry():
    engine, partition, app, manager = make_manager()
    with pytest.raises(ValueError):
        manager.reserve_prepopulated(*mapped_pages(1, app.space))


def test_hot_scan_removes_reservation_under_pressure():
    engine, partition, app, manager = make_manager(
        n_entries=64, high=0.10, hot_threshold=2
    )
    (page,) = mapped_pages(1, app.space)
    entry = obtain(engine, manager, page)  # granted (occupancy still low)
    # Make the partition pressured and the page hot (resident + LRU head).
    for _ in range(30):
        partition.pop_free()
    assert manager.under_pressure
    page.resident = True
    page.swap_entry = entry
    app.lru.insert(page)
    app.lru.note_access(page)
    manager._scan_once()
    assert page.reserved_entry is entry  # one scan is not enough
    manager._scan_once()
    assert page.reserved_entry is None
    assert page.state is PageState.HOT_NO_RESERVATION
    assert not entry.allocated
    assert manager.stats.reservations_removed == 1


def test_hot_score_resets_when_page_leaves_head():
    engine, partition, app, manager = make_manager(
        n_entries=64, high=0.0, hot_threshold=5, scan_fraction=0.01
    )
    pages = mapped_pages(100, app.space)
    for page in pages:
        page.resident = True
        app.lru.insert(page)
        app.lru.note_access(page)
    # The head scan covers max(8, 1) pages; make page 0 part of the head.
    app.lru.note_access(pages[0])
    manager._scan_once()
    assert pages[0].hot_score == 1
    # Ten other pages take over the head; page 0's streak resets.
    for page in pages[50:60]:
        app.lru.note_access(page)
    manager._scan_once()
    assert pages[0].hot_score == 0


def test_no_scanning_without_pressure():
    engine, partition, app, manager = make_manager(n_entries=1024, high=0.99)
    (page,) = mapped_pages(1, app.space)
    obtain(engine, manager, page)
    page.resident = True
    page.swap_entry = page.reserved_entry
    app.lru.insert(page)
    app.lru.note_access(page)
    engine.run(until=50_000.0)  # several scan periods
    assert page.reserved_entry is not None
    assert manager.stats.scans == 0


def test_emergency_release_frees_resident_reservations():
    """Allocations never starve: when the partition approaches
    exhaustion, reservations held by resident pages are recycled."""
    engine, partition, app, manager = make_manager(n_entries=8, high=0.99)
    pages = mapped_pages(12, app.space)  # more pages than entries
    for page in pages:
        entry = obtain(engine, manager, page)
        assert entry is not None
        page.resident = True
        page.swap_entry = page.reserved_entry
        app.lru.insert(page)
    assert manager.stats.reservations_removed >= 1
    assert partition.free_count >= 0


def test_emergency_release_only_touches_resident_pages():
    engine, partition, app, manager = make_manager(n_entries=4, high=0.99)
    (cold,) = mapped_pages(1, app.space)
    obtain(engine, manager, cold)
    cold.resident = False  # cold page: its entry holds the only data copy
    for _ in range(3):
        partition.pop_free()
    assert partition.free_count == 0
    with pytest.raises(RuntimeError):
        obtain(engine, manager, *mapped_pages(1, app.space))
    assert cold.reserved_entry is not None  # untouched


def test_lock_free_fraction():
    engine, partition, app, manager = make_manager()
    (page,) = mapped_pages(1, app.space)
    obtain(engine, manager, page)
    obtain(engine, manager, page)
    obtain(engine, manager, page)
    assert manager.stats.lock_free_fraction == pytest.approx(2 / 3)
