"""Unit tests for pages and address spaces."""

import pytest

from repro.mem import PAGE_SIZE, AddressSpace, PageState
from tests.conftest import mapped_pages


def test_page_defaults():
    (page,) = mapped_pages(1, "app")
    assert page.owner_name == "app"
    assert page.flag_space.name == "app"
    assert page.resident
    assert not page.dirty
    assert page.mapcount == 1
    assert not page.shared
    assert page.state is PageState.NEW
    assert page.swap_entry is None
    assert page.reserved_entry is None
    assert not page.has_reservation


def test_page_touch_sets_bits():
    (page,) = mapped_pages(1)
    page.touch(5.0)
    assert page.referenced
    assert not page.dirty
    page.touch(6.0, write=True)
    assert page.dirty
    assert page.last_access_us == 6.0


def test_page_ids_unique():
    a, b = mapped_pages(2)
    assert a.page_id != b.page_id


def test_shared_page_detection():
    (page,) = mapped_pages(1)
    page.mapcount = 2
    assert page.shared


def test_page_size_constant():
    assert PAGE_SIZE == 4096


def test_map_region_materializes_pages():
    space = AddressSpace("app")
    vma = space.map_region(10, name="heap")
    assert vma.n_pages == 10
    assert space.total_pages == 10
    for vpn in vma.vpns():
        assert space.page(vpn).vpn == vpn


def test_regions_do_not_overlap():
    space = AddressSpace("app")
    a = space.map_region(100, name="a")
    b = space.map_region(100, name="b")
    assert a.end_vpn <= b.start_vpn
    assert set(a.vpns()).isdisjoint(b.vpns())


def test_unmapped_vpn_raises():
    space = AddressSpace("app")
    space.map_region(4)
    with pytest.raises(KeyError):
        space.page(0)


def test_find_vma():
    space = AddressSpace("app")
    vma = space.map_region(8, name="x")
    assert space.find_vma(vma.start_vpn) is vma
    assert space.find_vma(vma.end_vpn - 1) is vma
    assert space.find_vma(vma.end_vpn) is None


def test_shared_mapping_bumps_mapcount():
    owner = AddressSpace("a")
    other = AddressSpace("b")
    vma = owner.map_region(4, name="lib")
    other.map_shared_from(owner, vma)
    for vpn in vma.vpns():
        page = owner.page(vpn)
        assert page.mapcount == 2
        assert page.shared
        assert other.page(vpn) is page
    assert vma.shared


def test_resident_pages_counts():
    space = AddressSpace("app")
    vma = space.map_region(5)
    assert space.resident_pages == 5
    space.page(vma.start_vpn).resident = False
    assert space.resident_pages == 4


def test_map_region_sets_resident_bits_and_clears_flags():
    space = AddressSpace("app")
    a = space.map_region(3)
    b = space.map_region(2)
    for vma in (a, b):
        assert space.resident_bits[vma.start_vpn : vma.end_vpn].all()
    assert space.resident_bits.sum() == 5  # guard gaps stay clear
    assert not space.dirty_bits.any() and not space.referenced_bits.any()


def test_shared_page_flags_stay_home_and_residency_mirrors():
    """A shared page's flag bits live only in its home space's arrays;
    a residency flip lands in the bitmap of every space that maps it."""
    owner = AddressSpace("a")
    other = AddressSpace("b")
    vma = owner.map_region(4, name="lib")
    other.map_shared_from(owner, vma)
    page = owner.page(vma.start_vpn + 1)
    vpn = page.vpn
    assert page.flag_space is owner
    page.dirty = True
    page.touch(7.0)
    assert owner.dirty_bits[vpn] and owner.referenced_bits[vpn]
    assert owner.last_access_arr[vpn] == 7.0
    assert not other.dirty_bits.any() and not other.referenced_bits.any()
    assert not other.last_access_arr.any()
    assert other.resident_bits[vpn] and owner.resident_bits[vpn]
    page.resident = False
    assert not owner.resident_bits[vpn] and not other.resident_bits[vpn]
    assert owner.resident_pages == other.resident_pages == 3
    page.resident = True
    assert owner.resident_bits[vpn] and other.resident_bits[vpn]
    assert owner.resident_pages == other.resident_pages == 4


def test_vma_rejects_empty():
    space = AddressSpace("app")
    with pytest.raises(ValueError):
        space.map_region(0)
