"""Unit tests for the swap-entry allocator in its four Linux forms."""

import numpy as np
import pytest

from repro.sim import Engine
from repro.swap import EntryAllocator, Linux514Allocator, SwapPartition


def cluster_allocator(eng, part, cluster_entries, rng):
    """The Linux 5.8 per-core-cluster patch alone, at its scan costs."""
    return EntryAllocator(
        eng,
        part,
        cluster_entries=cluster_entries,
        base_scan_us=1.2,
        scan_factor=0.25,
        rng=rng,
    )


def batch_allocator(eng, part, batch_size):
    """The Linux 5.8 batched-scan patch alone, at its scan costs."""
    return EntryAllocator(
        eng,
        part,
        batch_size=batch_size,
        base_scan_us=1.5,
        scan_factor=0.10,
        per_entry_batch_us=0.35,
    )


def run_allocations(engine, allocator, n, n_threads=1):
    """Spawn n_threads processes doing n allocations each; return entries."""
    results = []

    def worker(engine, core_id):
        got = []
        for _ in range(n):
            entry = yield from allocator.allocate(core_id)
            got.append(entry)
        results.append(got)

    for core in range(n_threads):
        engine.spawn(worker(engine, core))
    engine.run()
    return [e for chunk in results for e in chunk]


def test_freelist_allocates_unique_entries():
    eng = Engine()
    part = SwapPartition("p", 64)
    alloc = EntryAllocator(eng, part)
    entries = run_allocations(eng, alloc, 10, n_threads=3)
    assert len(entries) == 30
    assert len({e.entry_id for e in entries}) == 30
    assert alloc.stats.allocations == 30


def test_freelist_contention_inflates_alloc_time():
    part_solo = SwapPartition("solo", 4096)
    eng_solo = Engine()
    alloc_solo = EntryAllocator(eng_solo, part_solo)
    run_allocations(eng_solo, alloc_solo, 50, n_threads=1)

    part_contended = SwapPartition("cont", 4096)
    eng_cont = Engine()
    alloc_cont = EntryAllocator(eng_cont, part_contended)
    run_allocations(eng_cont, alloc_cont, 50, n_threads=16)

    assert alloc_cont.stats.mean_alloc_time_us > 2 * alloc_solo.stats.mean_alloc_time_us


def test_freelist_scan_cost_grows_with_occupancy():
    eng = Engine()
    part = SwapPartition("p", 100)
    alloc = EntryAllocator(eng, part)
    run_allocations(eng, alloc, 95)
    # Re-measure one allocation near-full vs the first near-empty.
    assert alloc.stats.max_alloc_time_us > alloc.base_scan_us * 2


def test_freelist_free_returns_entry():
    eng = Engine()
    part = SwapPartition("p", 4)
    alloc = EntryAllocator(eng, part)
    entries = run_allocations(eng, alloc, 4)
    assert part.free_count == 0
    alloc.free(entries[0])
    assert part.free_count == 1
    assert alloc.stats.frees == 1


def test_cluster_allocator_unique_entries():
    eng = Engine()
    part = SwapPartition("p", 1024)
    alloc = cluster_allocator(eng, part, 64, np.random.default_rng(1))
    entries = run_allocations(eng, alloc, 20, n_threads=8)
    assert len({e.entry_id for e in entries}) == 160


def test_cluster_allocator_free_and_reuse():
    eng = Engine()
    part = SwapPartition("p", 128)
    alloc = cluster_allocator(eng, part, 64, np.random.default_rng(1))
    entries = run_allocations(eng, alloc, 4)
    alloc.free(entries[0])
    assert alloc.occupancy == pytest.approx(3 / 128)


def test_cluster_allocator_exhaustion():
    eng = Engine()
    part = SwapPartition("p", 8)
    alloc = cluster_allocator(eng, part, 4, np.random.default_rng(1))
    with pytest.raises(RuntimeError):
        run_allocations(eng, alloc, 9)


def test_cluster_collision_degree_grows_with_cores():
    # More cores than clusters forces collisions.
    eng = Engine()
    part = SwapPartition("p", 4096)
    alloc = cluster_allocator(
        eng, part, 1024, np.random.default_rng(1)
    )  # only 4 clusters
    run_allocations(eng, alloc, 5, n_threads=16)
    assert alloc.collision_degree() > 1.0


def test_batch_allocator_amortizes_lock():
    eng = Engine()
    part = SwapPartition("p", 1024)
    alloc = batch_allocator(eng, part, 16)
    run_allocations(eng, alloc, 64)
    assert alloc.stats.lock_acquisitions == 4  # 64 / 16
    assert alloc.stats.allocations == 64


def test_batch_allocator_unique_entries_across_cores():
    eng = Engine()
    part = SwapPartition("p", 1024)
    alloc = batch_allocator(eng, part, 8)
    entries = run_allocations(eng, alloc, 16, n_threads=4)
    assert len({e.entry_id for e in entries}) == 64


def test_linux514_combines_cluster_and_batch():
    eng = Engine()
    part = SwapPartition("p", 2048)
    alloc = Linux514Allocator(
        eng, part, cluster_entries=256, batch_size=8, rng=np.random.default_rng(2)
    )
    entries = run_allocations(eng, alloc, 32, n_threads=4)
    assert len({e.entry_id for e in entries}) == 128
    # Locking happens once per batch at most.
    assert alloc.stats.lock_acquisitions <= 128 / 8 + 4


def test_rate_per_second():
    eng = Engine()
    part = SwapPartition("p", 512)
    alloc = EntryAllocator(eng, part)
    run_allocations(eng, alloc, 100)
    assert alloc.stats.rate_per_second() > 0


def test_mean_alloc_time_zero_when_unused():
    eng = Engine()
    part = SwapPartition("p", 8)
    alloc = EntryAllocator(eng, part)
    assert alloc.stats.mean_alloc_time_us == 0.0
    assert alloc.stats.rate_per_second() == 0.0
