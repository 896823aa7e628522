"""Seeded-random property tests for swap-entry and swap-cache bookkeeping.

No hypothesis dependency: each test drives a long random interleaving of
operations from a seeded numpy generator (parametrized over seeds), with
a shadow model alongside.  The invariants under test:

* an allocator never hands the same entry to two holders, never loses an
  entry, and its free/held/stashed counts always reconcile to the
  partition size — under concurrent allocation from many cores;
* the swap cache's membership, LRU bookkeeping, and ``in_swap_cache``
  flags always match a shadow dict, and its stats reconcile
  (``insertions == removals + shrink_evictions + len(cache)``);
* a live swap system's end state reconciles — unique allocated entries,
  balanced frame-pool charges, empty in-flight tables — with and
  without injected transport faults.
"""

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.sim import Engine
from repro.sim.rng import derive_seed
from repro.swap import SwapPartition
from repro.swap.allocator import EntryAllocator, Linux514Allocator
from repro.swap.swap_cache import SwapCache
from tests.conftest import (
    build_shared_corun,
    build_system,
    mapped_pages,
    sequential_accesses,
)
from tests.golden.matrix import shared_ledger_errors

N_ENTRIES = 512
#: The four Linux allocator variants, each at its own scan costs.
ALLOCATORS = {
    "freelist": EntryAllocator,
    "percore-cluster": lambda eng, part: EntryAllocator(
        eng, part, cluster_entries=64, base_scan_us=1.2, scan_factor=0.25
    ),
    "batch": lambda eng, part: EntryAllocator(
        eng,
        part,
        batch_size=16,
        base_scan_us=1.5,
        scan_factor=0.10,
        per_entry_batch_us=0.35,
    ),
    "linux514": lambda eng, part: Linux514Allocator(eng, part, cluster_entries=64),
}


def _free_and_stashed(allocator) -> int:
    """Entries not handed out: free in the partition or in core batches."""
    return allocator.partition.free_count + allocator.batched_count


@pytest.mark.parametrize("name", sorted(ALLOCATORS))
@pytest.mark.parametrize("seed", [0, 1])
def test_allocator_random_interleavings_reconcile(name, seed):
    eng = Engine()
    part = SwapPartition("p", N_ENTRIES)
    allocator = ALLOCATORS[name](eng, part)
    held_ids = set()
    outstanding = [0]
    handed_out = [0]
    freed = [0]
    n_cores = 4

    def worker(core_id):
        rng = np.random.default_rng(derive_seed(seed, f"worker{core_id}"))
        held = []
        for _ in range(120):
            want_alloc = not held or rng.random() < 0.55
            if want_alloc and outstanding[0] < N_ENTRIES - 64:
                entry = yield from allocator.allocate(core_id)
                # Never hand one entry to two holders.
                assert entry.entry_id not in held_ids
                assert entry.allocated
                held_ids.add(entry.entry_id)
                held.append(entry)
                outstanding[0] += 1
                handed_out[0] += 1
            elif held:
                entry = held.pop(int(rng.integers(0, len(held))))
                allocator.free(entry)
                held_ids.remove(entry.entry_id)
                outstanding[0] -= 1
                freed[0] += 1
            if rng.random() < 0.2:
                yield eng.sleep(float(rng.random()))
        # Leave the rest held: the reconciliation below must account for
        # entries still out, not just a fully-drained end state.
        holders.append(held)

    holders = []
    for core_id in range(n_cores):
        eng.spawn(worker(core_id))
    eng.run()

    # No entry lost, none duplicated: free + stashed + held == partition.
    assert _free_and_stashed(allocator) + len(held_ids) == N_ENTRIES
    assert allocator.stats.allocations == handed_out[0]
    assert allocator.stats.frees == freed[0]
    # Drain the survivors; the partition must reconcile back to full.
    for held in holders:
        for entry in held:
            allocator.free(entry)
            held_ids.remove(entry.entry_id)
    assert not held_ids
    assert _free_and_stashed(allocator) == N_ENTRIES


def _assert_double_free_rejected(name):
    eng = Engine()
    part = SwapPartition("p", 16)
    allocator = ALLOCATORS[name](eng, part)
    done = []

    def proc():
        entry = yield from allocator.allocate(0)
        allocator.free(entry)
        with pytest.raises(ValueError):
            allocator.free(entry)
        done.append(entry)

    eng.spawn(proc())
    eng.run()
    assert done
    # The rejected free pooled nothing: every entry is handed out once.
    handed = [allocator.take_free_untimed() for _ in range(part.free_count)]
    assert len({e.entry_id for e in handed}) == len(handed)


def test_freelist_double_free_is_rejected():
    _assert_double_free_rejected("freelist")


@pytest.mark.parametrize("name", ["batch", "linux514", "percore-cluster"])
def test_clustered_and_batched_double_free_is_rejected(name):
    _assert_double_free_rejected(name)


@pytest.mark.parametrize("name", sorted(ALLOCATORS))
def test_partition_counts_and_growth_hold_for_every_variant(name):
    """Free plus used is capacity while entries are out, and a grow's
    new entries are allocatable once the original ones are gone."""
    eng = Engine()
    part = SwapPartition("p", 100)
    allocator = ALLOCATORS[name](eng, part)
    got = []

    def proc():
        for _ in range(100):
            got.append((yield from allocator.allocate(0)))
            assert part.free_count + part.used_count == part.n_entries
        with pytest.raises(RuntimeError):
            yield from allocator.allocate(0)
        assert part.used_count == 100
        part.grow(40)
        for _ in range(40):
            got.append((yield from allocator.allocate(1)))

    eng.spawn(proc())
    eng.run()
    assert sorted(e.entry_id for e in got) == list(range(140))
    assert part.free_count + allocator.batched_count == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swap_cache_random_ops_match_shadow_model(seed):
    rng = np.random.default_rng(derive_seed(seed, "cache-props"))
    part = SwapPartition("p", 128)
    cache = SwapCache("c", capacity_pages=32)
    entries = [part.pop_free() for _ in range(96)]
    pages = {
        e.entry_id: page for e, page in zip(entries, mapped_pages(len(entries), "a"))
    }
    shadow = {}

    for _ in range(2000):
        entry = entries[int(rng.integers(0, len(entries)))]
        op = rng.random()
        if op < 0.35:  # insert (only if absent, as the kernel guarantees)
            if entry.entry_id in shadow:
                with pytest.raises(ValueError):
                    cache.insert(entry, pages[entry.entry_id])
            else:
                cache.insert(
                    entry, pages[entry.entry_id], prefetched=bool(rng.random() < 0.3)
                )
                shadow[entry.entry_id] = pages[entry.entry_id]
        elif op < 0.6:  # fault-path lookup
            hit = cache.lookup(entry)
            assert (hit is not None) == (entry.entry_id in shadow)
            if hit is not None:
                assert hit is shadow[entry.entry_id]
        elif op < 0.8:  # remove/discard
            if entry.entry_id in shadow:
                page = cache.remove(entry)
                assert page is shadow.pop(entry.entry_id)
                assert not page.in_swap_cache
            else:
                assert cache.discard(entry) is None
        elif shadow and op < 0.9:  # shrink pass over LRU candidates
            for entry_id, page in cache.shrink_candidates(int(rng.integers(1, 4))):
                assert page is shadow.pop(entry_id)
                released = cache.release(entry_id)
                assert released is page
        else:  # peek never perturbs state
            lookups_before = cache.stats.lookups
            assert (cache.peek(entry) is not None) == (entry.entry_id in shadow)
            assert cache.stats.lookups == lookups_before
        # Membership and flags always agree with the model.
        assert len(cache) == len(shadow)
        assert (entry in cache) == (entry.entry_id in shadow)

    for entry in entries:
        assert pages[entry.entry_id].in_swap_cache == (entry.entry_id in shadow)
    stats = cache.stats
    assert stats.insertions == stats.removals + stats.shrink_evictions + len(cache)
    assert stats.hits + stats.misses == stats.lookups


# -- End-state reconciliation on a live system, faulted or not -----------


@pytest.mark.parametrize("faulted", [False, True])
def test_system_end_state_reconciles(faulted):
    machine = Machine(seed=2)
    system, app, vma = build_system(machine)
    if faulted:
        plan = FaultPlan(
            FaultConfig(
                drop_prob=0.02,
                completion_error_prob=0.01,
                retransmit_timeout_us=50.0,
            ),
            seed=2,
        )
        machine.nic.fault_plan = plan
        system.fault_plan = plan
    proc = spawn_app(system, app, [sequential_accesses(vma, 4000, write=True)])
    run_to_completion(machine.engine, [proc])
    machine.engine.run(until=machine.engine.now + 200_000)

    assert app.finished_at_us is not None
    # No two pages share a swap entry, and every referenced entry is
    # still marked allocated (a double-free would have recycled one).
    referenced = [
        p.swap_entry for p in app.space.pages.values() if p.swap_entry is not None
    ]
    ids = [e.entry_id for e in referenced]
    assert len(ids) == len(set(ids))
    assert all(e.allocated for e in referenced)
    # Frame-pool ledger balances and nothing is left in flight.
    pool = app.pool
    assert pool.stats.charges - pool.stats.uncharges == pool.used
    assert 0 <= pool.used <= pool.capacity_pages
    assert system._inflight == {}
    assert system._inflight_req == {}
    assert all(a.outstanding_writebacks == 0 for a in system.apps.values())
    if faulted:
        stats = machine.nic.stats
        assert (
            stats.wire_drops + stats.completion_errors
            == stats.retransmits + stats.transport_failures
        )


def _shared_corun(system="linux", shared=True, touch_shared=True, seed=5):
    machine = Machine(seed=seed)
    swap, apps, streams = build_shared_corun(
        machine, system, shared=shared, touch_shared=touch_shared
    )
    procs = [spawn_app(swap, apps[name], [streams[name]]) for name in apps]
    run_to_completion(machine.engine, procs)
    machine.engine.run(until=machine.engine.now + 200_000)
    return swap, apps


@pytest.mark.parametrize("shared", [False, True])
def test_residency_accounting_reconciles(shared):
    """The residency bitmap, ``resident_pages`` and a full page-dict
    scan must always agree in every space, and the frame-pool charge
    ledger must balance — on a plain two-app co-run and on one where
    both apps touch a shared region."""
    system, apps = _shared_corun(shared=shared)
    assert any(app.space.has_foreign_pages for app in apps.values()) == shared
    for app in apps.values():
        assert app.finished_at_us is not None
        space = app.space
        by_dict = sum(1 for p in space.pages.values() if p.resident)
        by_bits = int(np.count_nonzero(space.resident_bits))
        assert space.resident_pages == by_dict == by_bits
        assert all(
            space.resident_bits[vpn] == page.resident
            for vpn, page in space.pages.items()
        )
        pool = app.pool
        assert pool.stats.charges - pool.stats.uncharges == pool.used
        # The LRU classification covers exactly the LRU members, and
        # every page on the LRU is resident.
        on_lru = np.flatnonzero(space.lru_where != 0)
        assert len(app.lru) == len(on_lru)
        assert bool(space.resident_bits[on_lru].all())
    assert shared_ledger_errors(system, apps) == []


def test_flat_and_legacy_state_agree_end_to_end():
    """A shared mapping no access touches changes nothing: the same
    seeded co-run with and without it gives identical access/fault
    counts, completion times, and final residency, although the mapping
    sends the second app's consume side effects and reclaim drains down
    their per-page branches."""
    outcomes = {}
    for shared in (False, True):
        system, apps = _shared_corun(shared=shared, touch_shared=False, seed=9)
        assert apps["b"].space.has_foreign_pages == shared
        outcomes[shared] = [
            (
                app.stats.accesses,
                app.stats.faults,
                app.stats.swapouts,
                app.finished_at_us,
                sum(
                    p.resident for p in app.space.pages.values() if p.owner_name == name
                ),
            )
            for name, app in sorted(apps.items())
        ]
    assert outcomes[False] == outcomes[True]


# -- Churn: every session departs, every ledger reconciles ---------------


def _churn_traffic():
    from repro.workloads.traffic import TrafficConfig

    return TrafficConfig(n_sessions=6, day_us=15_000.0, accesses_mean=1200)


@pytest.mark.parametrize("system", ["linux", "linux514", "fastswap"])
def test_churn_allocator_free_count_returns_to_capacity(system):
    """Traffic-driven arrivals and departures: once the last session has
    torn down, the shared allocator's free and stashed entries sum back
    to the full partition capacity, every cgroup's charges balance, and
    nothing is left in flight."""
    from repro.harness.experiment import ExperimentConfig, run_churn

    result = run_churn(
        ExperimentConfig(system=system, seed=2, traffic=_churn_traffic())
    )
    allocator = result.system.shared_path.allocator
    assert _free_and_stashed(allocator) == allocator.partition.n_entries
    assert len(result.system.apps) == 0
    for name, app in result.apps.items():
        assert app.pool.used == 0, f"{name} left frames charged"
        assert app.pool.stats.charges == app.pool.stats.uncharges
        assert app.outstanding_writebacks == 0
        assert app.inflight_prefetches == 0


def test_churn_rack_ledgers_reconcile_after_all_departures():
    """Canvas on a rack: withdrawing each departing app's private
    partition must retire its entries, so after the last departure the
    per-server homing charges reconcile to exactly the shared global
    partition and the rehome/loss ledger balances."""
    from repro.cluster import ClusterConfig
    from repro.harness.experiment import ExperimentConfig, run_churn

    result = run_churn(
        ExperimentConfig(
            system="canvas",
            seed=4,
            cluster=ClusterConfig(n_servers=3),
            traffic=_churn_traffic(),
        )
    )
    rack = result.rack
    assert rack is not None
    assert rack.ledger_balanced()
    # Every per-app private partition withdrew with its owner; only the
    # shared global partition (never an app's) may remain adopted.
    remaining = [p.name for _sys, p, _alloc in rack._adopted]
    assert remaining == ["canvas.global"]
    # The per-server homing charges match a ground-up recount, and the
    # recount covers exactly the surviving shared partition.
    recount = rack.homed_counts()
    for server in rack.servers:
        assert server.entries_homed == recount[server.server_id]
    (shared,) = [p for _sys, p, _alloc in rack._adopted]
    assert sum(recount.values()) == sum(
        1 for entry in shared.entries if not entry.retired
    )


def test_churn_digest_serial_matches_parallel():
    """`churn_digest` is a pure function of the config: computing the
    same traffic runs in worker processes must reproduce the serial
    digests bit-for-bit (same bar the steady-state harness meets)."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.harness.experiment import ExperimentConfig, churn_digest

    configs = [
        ExperimentConfig(system="linux", seed=1, traffic=_churn_traffic()),
        ExperimentConfig(system="canvas", seed=1, traffic=_churn_traffic()),
        ExperimentConfig(system="canvas", seed=2, traffic=_churn_traffic()),
    ]
    serial = [churn_digest(c) for c in configs]
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(churn_digest, configs))
    assert parallel == serial
    # Seed sensitivity: the digest is not a constant.
    assert serial[1] != serial[2]
