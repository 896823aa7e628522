"""End-to-end checks of the Fig. 7 page/reservation state machine.

Drives a single page through the §5.1 lifecycle on a real Canvas system
and asserts the state labels at each step:

  NEW → (first swap-out, locked alloc + reservation) COLD_RESERVED
      → (swap-in) RESIDENT_RESERVED
      → (hot-scan cancellation) HOT_NO_RESERVATION
      → (eviction) COLD_NO_RESERVATION → (locked alloc again) ...
"""

import pytest

from repro.core import CanvasSwapSystem
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig
from repro.mem import PageState


@pytest.fixture()
def setup():
    machine = Machine(seed=21)
    system = CanvasSwapSystem(machine.engine, machine.nic, telemetry=machine.telemetry)
    app = AppContext(
        machine.engine,
        CgroupConfig(
            name="a",
            n_cores=2,
            local_memory_pages=256,
            swap_partition_pages=1024,
            swap_cache_pages=96,
        ),
    )
    app.space.map_region(128, name="heap")
    system.register_app(app)
    system.prepopulate(app, resident_fraction=1.0)  # everything local
    return machine, system, app


def drive(machine, generator):
    proc = machine.engine.spawn(generator)
    machine.engine.run_until_fired(proc, limit=10_000_000)


def test_full_lifecycle(setup):
    machine, system, app = setup
    manager = system._state["a"].adaptive
    page = next(iter(app.space.pages.values()))
    page.dirty = True
    assert page.state is PageState.NEW

    # First eviction: lock-protected allocation grants a reservation.
    app.lru.remove(page)
    app.lru.insert(page)  # move to a known list position

    def evict():
        # Use the system's real eviction on this specific victim.
        app.lru.discard(page)
        original = app.lru.select_victims
        app.lru.select_victims = lambda n, stop=None: [page]  # pin the victim
        try:
            yield from system._evict_one(app, 0)
        finally:
            app.lru.select_victims = original

    drive(machine, evict())
    assert page.state is PageState.COLD_RESERVED
    assert page.reserved_entry is not None
    assert manager.stats.locked_allocations == 1
    first_entry = page.reserved_entry

    # Swap-in: reservation kept, entry data still valid.
    def fault():
        yield from system.handle_fault(app, 0, page.vpn, False)

    drive(machine, fault())
    assert page.state is PageState.RESIDENT_RESERVED
    assert page.reserved_entry is first_entry
    assert page.swap_entry is first_entry  # clean copy kept remotely

    # Re-eviction while clean: a free clean drop, same remote cell.
    def evict_again():
        app.lru.discard(page)
        original = app.lru.select_victims
        app.lru.select_victims = lambda n, stop=None: [page]
        try:
            yield from system._evict_one(app, 0)
        finally:
            app.lru.select_victims = original

    drive(machine, evict_again())
    assert page.state is PageState.COLD_RESERVED
    assert app.stats.clean_drops == 1
    assert manager.stats.locked_allocations == 1  # no new allocation

    # Swap back in and dirty it; the next writeback reuses the
    # reservation lock-free.
    drive(machine, fault())
    page.dirty = True
    drive(machine, evict_again())
    assert manager.stats.reserved_swapouts == 1
    assert manager.stats.locked_allocations == 1
    assert page.swap_entry is first_entry

    # Hot-scan cancellation: bring it in, make it hot, scan twice.
    drive(machine, fault())
    for _ in range(manager.hot_threshold):
        app.lru.note_access(page)
        page.hot_score += 0  # access keeps it at the active head
        manager._scan_once()
    assert page.state is PageState.HOT_NO_RESERVATION
    assert page.reserved_entry is None
    assert not first_entry.allocated  # entry returned to the free list

    # Final eviction goes back through the lock-protected path (the
    # paper's worst case, equal to stock Linux).
    page.dirty = True
    drive(machine, evict_again())
    assert manager.stats.locked_allocations == 2
    assert page.state is PageState.COLD_RESERVED  # fresh grant (space left)


def test_cold_no_reservation_state(setup):
    machine, system, app = setup
    manager = system._state["a"].adaptive
    page = next(iter(app.space.pages.values()))
    page.dirty = True
    # Drain grant headroom so the new allocation is NOT reserved.
    part = app.swap_path.partition
    while part.free_count > manager.reserve_guard:
        part.pop_free()

    def evict():
        app.lru.discard(page)
        original = app.lru.select_victims
        app.lru.select_victims = lambda n, stop=None: [page]
        try:
            yield from system._evict_one(app, 0)
        finally:
            app.lru.select_victims = original

    drive(machine, evict())
    assert page.state is PageState.COLD_NO_RESERVATION
    assert page.reserved_entry is None
