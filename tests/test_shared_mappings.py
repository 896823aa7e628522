"""Shared mappings (paper §4): one app maps a region, another maps it too.

A shared page keeps its flags in the space that mapped it first (its
flag home) and sits on the LRU of whichever app mapped it in; other
mappers only set its referenced bit, as Linux does for a shared
anonymous page on one memcg's LRU.  The end-to-end co-runs over a shared
region are pinned by the ``shared/*`` golden entries.
"""

import numpy as np
import pytest

from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.mem import AddressSpace
from repro.workloads.batch import AccessBatch


def _pair(machine, local_pages=200):
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=4096,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=64),
    )
    apps = [
        AppContext(
            machine.engine,
            CgroupConfig(name=name, n_cores=2, local_memory_pages=local_pages),
        )
        for name in ("a", "b")
    ]
    return system, apps


def test_resident_access_from_second_app_sets_flags_only():
    """``a`` maps a shared page in; ``b``'s resident access to it sets
    the page's referenced and dirty bits in ``a``'s arrays and leaves
    both LRUs untouched."""
    machine = Machine(seed=1)
    system, (a, b) = _pair(machine)
    shm = a.space.map_region(8, name="shm")
    b.space.map_shared_from(a.space, shm)
    system.register_app(a)
    system.register_app(b)
    system.prepopulate(a, resident_fraction=1.0)
    vpn = shm.start_vpn + 3
    page = a.space.page(vpn)
    assert page.resident and page in a.lru and page not in b.lru
    page.referenced = False
    stamps = a.space.lru_stamp.copy()
    where = a.space.lru_where.copy()

    batch = AccessBatch(
        np.array([vpn], dtype=np.int64),
        np.array([True]),
        np.array([0.1]),
    )
    end, pending, _ = system.consume_batch(b, batch, 0, 0.0, 25.0)

    assert end == 1 and pending == pytest.approx(0.1)
    assert page.referenced and page.dirty
    assert a.space.referenced_bits[vpn] and a.space.dirty_bits[vpn]
    assert not b.space.referenced_bits[vpn] and not b.space.dirty_bits[vpn]
    assert np.array_equal(a.space.lru_stamp, stamps)
    assert np.array_equal(a.space.lru_where, where)
    assert page not in b.lru and len(b.lru) == 0
    assert b.stats.accesses == 1


def test_map_region_after_shared_mapping_does_not_overlap():
    """A region mapped after a shared mirror lands past it instead of
    silently replacing the shared pages."""
    owner, other = AddressSpace("a"), AddressSpace("b")
    owner.map_region(512, name="heap")
    shm = owner.map_region(96, name="shm")
    mirror = other.map_shared_from(owner, shm)
    heap = other.map_region(600, name="heap")
    assert heap.start_vpn >= mirror.end_vpn
    for vpn in shm.vpns():
        assert other.page(vpn) is owner.page(vpn)
    assert other.find_vma(shm.start_vpn) is mirror


def test_shared_mapping_over_a_mapped_range_is_rejected():
    owner, other = AddressSpace("a"), AddressSpace("b")
    shm = owner.map_region(32, name="shm")
    other.map_region(64, name="heap")  # same VPNs as the owner's region
    with pytest.raises(ValueError):
        other.map_shared_from(owner, shm)


def test_prepopulate_leaves_shared_pages_to_their_owner():
    """Prepopulating the second mapper takes no swap entry and charges no
    frame for shared pages the owner already laid out."""
    machine = Machine(seed=2)
    system, (a, b) = _pair(machine)
    a.space.map_region(256, name="heap")
    shm = a.space.map_region(96, name="shm")
    b.space.map_shared_from(a.space, shm)
    b.space.map_region(256, name="heap")
    system.register_app(a)
    system.register_app(b)
    system.prepopulate(a, resident_fraction=0.3)
    layout = [(p.resident, p.swap_entry) for p in map(a.space.page, shm.vpns())]
    system.prepopulate(b, resident_fraction=0.3)

    assert [(p.resident, p.swap_entry) for p in map(a.space.page, shm.vpns())] == layout
    pages = {id(p): p for app in (a, b) for p in app.space.pages.values()}
    holders = sum(p.swap_entry is not None for p in pages.values())
    assert system.shared_path.partition.used_count == holders
    own_b = sum(1 for p in b.space.pages.values() if p.owner_name == "b")
    assert b.pool.used == int(own_b * 0.3)
    assert len(b.lru) == b.pool.used
