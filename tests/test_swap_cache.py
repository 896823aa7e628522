"""Unit tests for the swap cache."""

import pytest

from repro.swap import SwapCache, SwapPartition
from tests.conftest import mapped_pages


def make_cache(capacity=8):
    part = SwapPartition("p", 64)
    cache = SwapCache("c", capacity)
    return part, cache


def test_insert_and_lookup_hit():
    part, cache = make_cache()
    entry = part.pop_free()
    (page,) = mapped_pages(1)
    cache.insert(entry, page)
    assert page.in_swap_cache
    assert cache.lookup(entry) is page
    assert cache.stats.hits == 1
    assert cache.stats.lookups == 1


def test_lookup_miss():
    part, cache = make_cache()
    entry = part.pop_free()
    assert cache.lookup(entry) is None
    assert cache.stats.misses == 1


def test_prefetch_hit_counted():
    part, cache = make_cache()
    entry = part.pop_free()
    cache.insert(entry, *mapped_pages(1), prefetched=True)
    cache.lookup(entry)
    assert cache.stats.prefetch_hits == 1
    assert cache.stats.prefetch_insertions == 1


def test_demand_hit_not_counted_as_prefetch():
    part, cache = make_cache()
    entry = part.pop_free()
    cache.insert(entry, *mapped_pages(1), prefetched=False)
    cache.lookup(entry)
    assert cache.stats.prefetch_hits == 0


def test_duplicate_insert_rejected():
    part, cache = make_cache()
    entry = part.pop_free()
    first, second = mapped_pages(2)
    cache.insert(entry, first)
    with pytest.raises(ValueError):
        cache.insert(entry, second)


def test_remove_clears_flag():
    part, cache = make_cache()
    entry = part.pop_free()
    (page,) = mapped_pages(1)
    cache.insert(entry, page)
    assert cache.remove(entry) is page
    assert not page.in_swap_cache
    assert len(cache) == 0


def test_discard_missing_is_none():
    part, cache = make_cache()
    entry = part.pop_free()
    assert cache.discard(entry) is None


def test_overflow_and_shrink_candidates():
    part, cache = make_cache(capacity=2)
    entries = [part.pop_free() for _ in range(4)]
    pages = mapped_pages(4)
    for entry, page in zip(entries, pages):
        cache.insert(entry, page)
    assert cache.full
    assert cache.overflow == 2
    candidates = cache.shrink_candidates(2)
    # LRU first: the two oldest insertions.
    assert [page for _, page in candidates] == pages[:2]


def test_shrink_skips_locked_pages():
    part, cache = make_cache(capacity=1)
    e0, e1 = part.pop_free(), part.pop_free()
    locked, unlocked = mapped_pages(2)
    locked.locked = True
    cache.insert(e0, locked)
    cache.insert(e1, unlocked)
    candidates = cache.shrink_candidates(1)
    assert [page for _, page in candidates] == [unlocked]


def test_release_counts_unused_prefetch():
    part, cache = make_cache()
    entry = part.pop_free()
    cache.insert(entry, *mapped_pages(1), prefetched=True)
    cache.release(entry.entry_id)
    assert cache.stats.shrink_evictions == 1
    assert cache.stats.evicted_unused_prefetches == 1


def test_lookup_refreshes_lru_order():
    part, cache = make_cache(capacity=2)
    e0, e1 = part.pop_free(), part.pop_free()
    p0, p1 = mapped_pages(2)
    cache.insert(e0, p0)
    cache.insert(e1, p1)
    cache.lookup(e0)  # refresh page 0
    candidates = cache.shrink_candidates(1)
    assert [page for _, page in candidates] == [p1]


def test_hit_ratio():
    part, cache = make_cache()
    entry = part.pop_free()
    cache.insert(entry, *mapped_pages(1))
    cache.lookup(entry)
    missing = part.pop_free()
    cache.lookup(missing)
    assert cache.stats.hit_ratio == pytest.approx(0.5)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        SwapCache("c", 0)
