"""Unit tests for the generation-stamp LRU and its linked reference."""

import pytest

from tests.conftest import mapped_pages
from tests.lru_reference import ActiveInactiveLRU, LRUList


def test_lru_add_and_pop_order():
    lru = LRUList()
    pages = mapped_pages(3)
    for page in pages:
        lru.add_to_head(page)
    assert lru.pop_tail() is pages[0]
    assert lru.pop_tail() is pages[1]
    assert lru.pop_tail() is pages[2]
    assert lru.pop_tail() is None


def test_lru_move_to_head_changes_victim():
    lru = LRUList()
    pages = mapped_pages(3)
    for page in pages:
        lru.add_to_head(page)
    lru.move_to_head(pages[0])
    assert lru.pop_tail() is pages[1]


def test_lru_duplicate_add_rejected():
    lru = LRUList()
    (page,) = mapped_pages(1)
    lru.add_to_head(page)
    with pytest.raises(ValueError):
        lru.add_to_head(page)


def test_lru_head_pages_mru_first():
    lru = LRUList()
    pages = mapped_pages(5)
    for page in pages:
        lru.add_to_head(page)
    head = lru.head_pages(3)
    assert head == [pages[4], pages[3], pages[2]]


def test_lru_head_pages_larger_than_list():
    lru = LRUList()
    pages = mapped_pages(2)
    for page in pages:
        lru.add_to_head(page)
    assert len(lru.head_pages(10)) == 2


def test_lru_discard():
    lru = LRUList()
    (page,) = mapped_pages(1)
    assert not lru.discard(page)
    lru.add_to_head(page)
    assert lru.discard(page)
    assert len(lru) == 0


def test_active_inactive_insert_goes_inactive():
    lru = ActiveInactiveLRU()
    (page,) = mapped_pages(1)
    lru.insert(page)
    assert page in lru.inactive
    assert page not in lru.active


def test_access_promotes_to_active():
    lru = ActiveInactiveLRU()
    (page,) = mapped_pages(1)
    lru.insert(page)
    lru.note_access(page)
    assert page in lru.active


def test_access_unknown_page_raises():
    lru = ActiveInactiveLRU()
    with pytest.raises(ValueError):
        lru.note_access(*mapped_pages(1))


def test_select_victim_prefers_inactive_tail():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(3)
    for page in pages:
        lru.insert(page)
    victim = lru.select_victim()
    assert victim is pages[0]


def test_select_victim_gives_second_chance():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(2)
    for page in pages:
        lru.insert(page)
    pages[0].referenced = True
    victim = lru.select_victim()
    assert victim is pages[1]
    assert not pages[0].referenced  # second chance consumed


def test_select_victim_falls_back_to_active():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(4)
    for page in pages:
        lru.insert(page)
        lru.note_access(page)  # all active
    assert len(lru.inactive) == 0
    victim = lru.select_victim()
    assert victim is not None


def test_balance_demotes_active_tail():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(4)
    for page in pages:
        lru.insert(page)
        lru.note_access(page)
    demoted = lru.balance(0.5)
    assert demoted == 2
    assert len(lru.inactive) == 2


def test_remove_from_either_list():
    lru = ActiveInactiveLRU()
    a, b = mapped_pages(2)
    lru.insert(a)
    lru.insert(b)
    lru.note_access(b)
    lru.remove(a)
    lru.remove(b)
    assert len(lru) == 0


def test_len_and_contains():
    lru = ActiveInactiveLRU()
    (page,) = mapped_pages(1)
    assert page not in lru
    lru.insert(page)
    assert page in lru
    assert len(lru) == 1


def test_select_victim_rotates_all_referenced_tail_pages():
    """An all-referenced inactive list is aged one full rotation: every
    page loses its referenced bit, then the original tail is evicted."""
    lru = ActiveInactiveLRU()
    pages = mapped_pages(3)
    for page in pages:
        lru.insert(page)
        page.referenced = True
    victim = lru.select_victim()
    assert victim is pages[0]
    assert all(not page.referenced for page in pages)
    # The survivors kept their relative order through the rotation.
    assert list(lru.inactive) == [pages[1], pages[2]]


def test_select_victim_rotation_preserves_scan_order():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(4)
    for page in pages:
        lru.insert(page)
    pages[0].referenced = True
    pages[1].referenced = True
    victim = lru.select_victim()
    assert victim is pages[2]
    # Both rotated pages moved to the head, oldest rotated first.
    assert list(lru.inactive) == [pages[3], pages[0], pages[1]]


def test_select_victim_empty_lru_returns_none():
    lru = ActiveInactiveLRU()
    assert lru.select_victim() is None
    assert len(lru) == 0


def test_balance_on_empty_lists_is_noop():
    lru = ActiveInactiveLRU()
    assert lru.balance() == 0
    assert lru.balance(1.0) == 0
    assert len(lru.active) == 0 and len(lru.inactive) == 0


def test_balance_with_all_pages_inactive_demotes_nothing():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(3)
    for page in pages:
        lru.insert(page)
    assert lru.balance(0.5) == 0
    assert list(lru.inactive) == pages


def test_balance_exhausts_active_list_without_spinning():
    """A target the active list cannot satisfy stops at an empty list."""
    lru = ActiveInactiveLRU()
    pages = mapped_pages(2)
    for page in pages:
        lru.insert(page)
        lru.note_access(page)  # all active
    demoted = lru.balance(1.0)
    assert demoted == 2
    assert len(lru.active) == 0
    assert len(lru.inactive) == 2


def test_balance_clears_referenced_bit_on_demotion():
    lru = ActiveInactiveLRU()
    pages = mapped_pages(2)
    for page in pages:
        lru.insert(page)
        lru.note_access(page)
        page.referenced = True
    lru.balance(0.5)
    demoted = lru.inactive.peek_tail()
    assert demoted is not None and not demoted.referenced


# -- generation-stamp LRU: A/B equivalence with the linked structure ------
#
# GenerationLRU stores ordering as stamps over the address space's flat
# arrays; ActiveInactiveLRU links pages.  Every ordering event writes a
# fresh stamp, so ascending stamp order must equal the linked list's
# tail-to-head order — these tests drive both structures with identical
# seeded op sequences and demand identical observable behaviour.

import random

import numpy as np

from repro.mem import AddressSpace, GenerationLRU


class _Mirror:
    """The same logical page set on both structures."""

    def __init__(self, n_pages, epoch_limit=1 << 62):
        self.space = AddressSpace("flat")
        vma = self.space.map_region(n_pages)
        self.flat = GenerationLRU(self.space, name="flat", epoch_limit=epoch_limit)
        self.linked = ActiveInactiveLRU(name="linked")
        self.vpns = list(vma.vpns())
        # Twin pages (same VPNs, from a twin space) for the linked side,
        # so referenced-bit traffic from one structure cannot leak into
        # the other.
        twin = AddressSpace("linked")
        twin.map_region(n_pages)
        self.linked_pages = {vpn: twin.pages[vpn] for vpn in self.vpns}
        self.flat_pages = {vpn: self.space.pages[vpn] for vpn in self.vpns}
        self.on_lru = []  # vpns currently inserted

    def insert(self, vpn):
        self.flat.insert(self.flat_pages[vpn])
        self.linked.insert(self.linked_pages[vpn])
        self.on_lru.append(vpn)

    def note_access(self, vpn):
        self.flat.note_access(self.flat_pages[vpn])
        self.linked.note_access(self.linked_pages[vpn])

    def set_referenced(self, vpn):
        self.flat_pages[vpn].referenced = True
        self.linked_pages[vpn].referenced = True

    def remove(self, vpn):
        self.flat.remove(self.flat_pages[vpn])
        self.linked.remove(self.linked_pages[vpn])
        self.on_lru.remove(vpn)

    def balance(self, frac):
        a = self.flat.balance(frac)
        b = self.linked.balance(frac)
        assert a == b
        return a

    def select_victim(self):
        flat = self.flat.select_victims(1)
        b = self.linked.select_victim()
        if b is None:
            assert flat == []
            return None
        assert len(flat) == 1 and flat[0].vpn == b.vpn
        a = flat[0]
        self.on_lru.remove(a.vpn)
        return a

    def select_victims(self, n):
        flat = self.flat.select_victims(n)
        linked = []
        while len(linked) < n:
            page = self.linked.select_victim()
            if page is None:
                break
            linked.append(page)
        assert [p.vpn for p in flat] == [p.vpn for p in linked]
        for page in flat:
            self.on_lru.remove(page.vpn)
        return flat

    def check_state(self):
        assert len(self.flat) == len(self.linked)
        assert len(self.flat.active) == len(self.linked.active)
        assert len(self.flat.inactive) == len(self.linked.inactive)
        for view_a, view_b in (
            (self.flat.active, self.linked.active),
            (self.flat.inactive, self.linked.inactive),
        ):
            assert [p.vpn for p in view_a] == [p.vpn for p in view_b]
        for vpn in self.vpns:
            assert (
                self.flat_pages[vpn].referenced
                == self.linked_pages[vpn].referenced
            )


def _random_ops_match(seed, n_pages, epoch_limit, n_ops, max_batch=1):
    """Drive both structures through one seeded random op mix, starting
    half full; victims are drawn up to ``max_batch`` at a time on the flat
    side against as many single pops on the linked side."""
    rng = random.Random(seed)
    mirror = _Mirror(n_pages, epoch_limit=epoch_limit)
    for vpn in mirror.vpns[: n_pages // 2]:
        mirror.insert(vpn)
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.35 and mirror.on_lru:
            mirror.note_access(rng.choice(mirror.on_lru))
        elif roll < 0.45 and mirror.on_lru:
            mirror.set_referenced(rng.choice(mirror.on_lru))
        elif roll < 0.60:
            off = [v for v in mirror.vpns if v not in mirror.on_lru]
            if off:
                mirror.insert(rng.choice(off))
        elif roll < 0.70 and mirror.on_lru:
            mirror.remove(rng.choice(mirror.on_lru))
        elif roll < 0.80:
            mirror.balance(rng.choice([0.25, 0.5, 0.75]))
        elif max_batch > 1:
            mirror.select_victims(rng.randint(1, max_batch))
        else:
            mirror.select_victim()
    mirror.check_state()
    # Drain: eviction order must agree to the last page.
    while mirror.select_victim() is not None:
        pass
    assert len(mirror.flat) == 0
    return mirror


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("epoch_limit", [1 << 62, 97])
def test_generation_lru_matches_linked_on_random_ops(seed, epoch_limit):
    """Property test: identical victims, orders, and demote counts on a
    seeded random op mix — with and without epoch renormalization."""
    mirror = _random_ops_match(seed, 48, epoch_limit, n_ops=600)
    if epoch_limit == 97:
        assert mirror.flat.epochs > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("epoch_limit", [1 << 62, 1009])
def test_generation_lru_matches_linked_on_a_large_space(seed, epoch_limit):
    """The same property on a space whose victim queue holds hundreds of
    entries, with multi-victim draws: one queue walk pops several
    victims and rotates referenced candidates on the way, and — with
    the small epoch limit — rotations renormalize mid-walk and force a
    queue rebuild."""
    mirror = _random_ops_match(seed, 256, epoch_limit, n_ops=2000, max_batch=8)
    if epoch_limit == 1009:
        assert mirror.flat.epochs > 0


@pytest.mark.parametrize("epoch_limit", [1 << 62, 300])
def test_generation_lru_all_referenced_drain_matches_linked(epoch_limit):
    """A full inactive list with every page referenced: the first draw
    rotates the whole queue before it finds a victim.  With no epoch
    edge in reach the walk revisits the rotated entries it appended and
    pops the first-rotated page; with the edge 44 stamps away a rotation
    renormalizes mid-walk and the queue is rebuilt inside the same draw.
    Victims and end state match the linked structure's full rotation
    either way."""
    mirror = _Mirror(256, epoch_limit=epoch_limit)
    for vpn in mirror.vpns:
        mirror.insert(vpn)
    for vpn in mirror.vpns:
        mirror.set_referenced(vpn)
    epochs = mirror.flat.epochs
    mirror.select_victims(8)
    assert (mirror.flat.epochs > epochs) == (epoch_limit == 300)
    mirror.check_state()
    while mirror.select_victims(16):
        pass
    assert len(mirror.flat) == 0


@pytest.mark.parametrize("epoch_limit", [1 << 62, 23_300])
def test_generation_lru_queue_compaction_matches_linked(monkeypatch, epoch_limit):
    """A space that inserts far more than it evicts: the victim queue
    outgrows four times the space and compacts away its consumed prefix
    and stale entries.  A few ops later the queue is drawn to empty, and
    every victim must still match the linked structure.  The small epoch
    limit puts the edge 24 stamps into that draw, so the compacted queue
    is dropped and rebuilt mid-drain."""
    rng = random.Random(11)
    mirror = _Mirror(64, epoch_limit=epoch_limit)
    for vpn in mirror.vpns[:32]:
        mirror.insert(vpn)
    mirror.select_victim()  # the queue is complete from here on
    compactions = []
    compact = mirror.flat._vq_compact

    def spy():
        compactions.append(len(mirror.flat._vq_vpns))
        compact()

    monkeypatch.setattr(mirror.flat, "_vq_compact", spy)
    ops_left = 60_000
    while ops_left:
        ops_left -= 1
        roll = rng.random()
        on = set(mirror.on_lru)
        off = [vpn for vpn in mirror.vpns if vpn not in on]
        if roll < 0.45 and off:
            mirror.insert(rng.choice(off))
        elif roll < 0.75 and mirror.on_lru:
            vpn = rng.choice(mirror.on_lru)
            assert mirror.flat.discard(mirror.flat_pages[vpn])
            assert mirror.linked.discard(mirror.linked_pages[vpn])
            mirror.on_lru.remove(vpn)
        elif roll < 0.9 and mirror.on_lru:
            mirror.note_access(rng.choice(mirror.on_lru))
        elif mirror.on_lru:
            mirror.set_referenced(rng.choice(mirror.on_lru))
        if compactions and ops_left > 64:
            ops_left = 64  # draw while compacted entries are still live
    assert compactions, "the victim queue never compacted"
    assert mirror.flat.epochs == 0
    mirror.check_state()
    while mirror.select_victim() is not None:
        pass
    assert len(mirror.flat) == 0
    assert (mirror.flat.epochs > 0) == (epoch_limit == 23_300)


def test_generation_lru_epoch_rollover_preserves_order():
    """Renormalization compacts stamps without reordering anything."""
    mirror = _Mirror(16, epoch_limit=8)
    for vpn in mirror.vpns:
        mirror.insert(vpn)  # crosses the epoch edge twice
    assert mirror.flat.epochs >= 1
    mirror.check_state()
    order = [p.vpn for p in mirror.flat.inactive]
    assert order == mirror.vpns
    # Stamps are compacted to ranks after a rollover triggered mid-run.
    mirror.note_access(mirror.vpns[3])
    mirror.check_state()


def test_note_access_run_equals_sequential_note_access():
    """The vectorized bulk promote must leave the exact state a scalar
    per-access loop would, duplicates included."""
    space_a = AddressSpace("a")
    space_b = AddressSpace("b")
    vma_a = space_a.map_region(32)
    space_b.map_region(32)
    lru_a = GenerationLRU(space_a, name="a")
    lru_b = GenerationLRU(space_b, name="b")
    vpns = list(vma_a.vpns())
    for vpn in vpns:
        lru_a.insert(space_a.pages[vpn])
        lru_b.insert(space_b.pages[vpn])
    run = [vpns[5], vpns[2], vpns[5], vpns[9], vpns[2], vpns[7]]
    lru_a.note_access_run(np.asarray(run, dtype=np.int64))
    for vpn in run:
        lru_b.note_access(space_b.pages[vpn])
    assert np.array_equal(space_a.lru_where, space_b.lru_where)
    assert np.array_equal(space_a.lru_stamp, space_b.lru_stamp)
    assert lru_a._gen == lru_b._gen


def test_generation_lru_insert_and_access_validation():
    space = AddressSpace("v")
    vma = space.map_region(2)
    lru = GenerationLRU(space)
    page = space.pages[vma.start_vpn]
    other = space.pages[vma.start_vpn + 1]
    lru.insert(page)
    with pytest.raises(ValueError):
        lru.insert(page)
    with pytest.raises(ValueError):
        lru.note_access(other)
    with pytest.raises(KeyError):
        lru.remove(other)
    assert not lru.discard(other)
    assert lru.discard(page)
    assert len(lru) == 0


def test_generation_lru_victim_queue_revalidates_stale_entries():
    """Promotions after a queue refill must not resurrect stale victims."""
    space = AddressSpace("q")
    vma = space.map_region(8)
    lru = GenerationLRU(space)
    pages = [space.pages[v] for v in vma.vpns()]
    for page in pages:
        lru.insert(page)
    first = lru.select_victims(1)  # fills the candidate queue
    assert first == [pages[0]]
    lru.note_access(pages[1])  # promote the queue front out from under it
    victim = lru.select_victims(1)
    assert victim == [pages[2]]


# -- grouped victim selection (PR 8) --------------------------------------


def _twin_generation_lrus(n_pages, seed):
    """Two identically-populated GenerationLRUs with random bit state."""
    rng = random.Random(seed)
    twins = []
    for tag in ("a", "b"):
        space = AddressSpace(tag)
        vma = space.map_region(n_pages)
        lru = GenerationLRU(space, name=tag)
        vpns = list(vma.vpns())
        state = random.Random(seed)  # same rolls on both twins
        for vpn in vpns:
            lru.insert(space.pages[vpn])
        for vpn in vpns:
            if state.random() < 0.3:
                lru.note_access(space.pages[vpn])
            if state.random() < 0.35:
                space.pages[vpn].referenced = True
            if state.random() < 0.25:
                space.pages[vpn].dirty = True
        lru.balance(0.5)
        twins.append((space, lru))
    del rng
    return twins


def _serial_select(lru, n, stop=None):
    """``n`` single-victim selections, one call each."""
    victims = []
    while len(victims) < n:
        popped = lru.select_victims(1)
        if not popped:
            break
        victims.append(popped[0])
        if stop is not None and stop(popped[0]):
            break
    return victims


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 3, 7, 48])
def test_select_victims_matches_serial_loop(seed, n):
    """One batched pass returns the victims single-victim calls would,
    and leaves identical flat-array state behind."""
    (space_a, lru_a), (space_b, lru_b) = _twin_generation_lrus(32, seed)
    batched = lru_a.select_victims(n)
    serial = _serial_select(lru_b, n)
    assert [p.vpn for p in batched] == [p.vpn for p in serial]
    assert np.array_equal(space_a.lru_where, space_b.lru_where)
    assert np.array_equal(space_a.lru_stamp, space_b.lru_stamp)
    assert np.array_equal(space_a.referenced_bits, space_b.referenced_bits)
    assert lru_a._gen == lru_b._gen
    assert len(lru_a) == len(lru_b)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_select_victims_stop_predicate_cuts_batch_like_serial(seed):
    """The reclaim batch-cut: selection stops after the first victim the
    predicate flags (dirty here), exactly like the serial loop."""
    stop = lambda page: page.dirty  # noqa: E731
    (space_a, lru_a), (space_b, lru_b) = _twin_generation_lrus(32, seed)
    batched = lru_a.select_victims(16, stop=stop)
    serial = _serial_select(lru_b, 16, stop=stop)
    assert [p.vpn for p in batched] == [p.vpn for p in serial]
    if batched and any(p.dirty for p in batched):
        assert batched[-1].dirty  # the cut victim ends the batch
        assert not any(p.dirty for p in batched[:-1])
    assert np.array_equal(space_a.lru_where, space_b.lru_where)
    assert np.array_equal(space_a.lru_stamp, space_b.lru_stamp)


def test_select_victims_drains_to_empty_and_stops():
    space = AddressSpace("drain")
    vma = space.map_region(12)
    lru = GenerationLRU(space)
    for vpn in vma.vpns():
        lru.insert(space.pages[vpn])
    victims = lru.select_victims(50)
    assert len(victims) == 12
    assert len(lru) == 0
    assert lru.select_victims(4) == []
    assert lru.select_victims(0) == []


def test_active_inactive_select_victims_matches_serial():
    """The linked-list baseline's select_victims is the serial loop."""
    lru_a, lru_b = ActiveInactiveLRU(), ActiveInactiveLRU()
    pages_a, pages_b = mapped_pages(10), mapped_pages(10)
    for a, b in zip(pages_a, pages_b):
        lru_a.insert(a)
        lru_b.insert(b)
    pages_a[4].dirty = pages_b[4].dirty = True
    stop = lambda page: page.dirty  # noqa: E731
    batched = lru_a.select_victims(8, stop=stop)
    serial = _serial_select(lru_b, 8, stop=stop)
    assert [p.vpn for p in batched] == [p.vpn for p in serial]
    assert batched[-1] is pages_a[4]
