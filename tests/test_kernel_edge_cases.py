"""Edge-case tests for the swap data path."""

from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.rdma.message import RequestKind
from repro.workloads.batch import chunk_stream


def build(machine, local=128, total=512, cores=4, cache=96, prefetcher=None):
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=4096,
        prefetcher=prefetcher,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=cache),
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(name="a", n_cores=cores, local_memory_pages=local),
    )
    app.space.map_region(total, name="heap")
    system.register_app(app)
    system.prepopulate(app, resident_fraction=local / total * 0.8)
    return system, app


def test_writeback_rescue_remaps_page_under_writeback():
    """A fault landing mid-writeback re-maps the page from the swap
    cache instead of waiting for (or re-fetching after) the write."""
    # Slow write path: the writeback stays in flight for ~41 µs.
    machine = Machine(seed=11, write_bandwidth_bytes_per_us=100.0)
    system, app = build(machine, local=96, total=384)
    victim = next(p for p in app.space.pages.values() if p.resident)
    victim.dirty = True
    app.lru.remove(victim)  # our synthetic eviction, not the LRU's pick

    def evict_then_fault():
        # Evict exactly this page (mirrors _evict_one's writeback body).
        victim.resident = False
        victim.locked = True
        event = machine.engine.event("wb")
        system._inflight[victim] = event
        entry = yield from system._obtain_writeback_entry(app, victim, 0)
        entry.stored_vpn = victim.vpn
        victim.swap_entry = entry
        system.shared_path.cache.insert(entry, victim)
        from repro.rdma.message import RdmaOp, RdmaRequest

        request = RdmaRequest(
            RdmaOp.WRITE, RequestKind.SWAPOUT, app.name, entry, victim,
            completion=machine.engine.event(),
        )
        system._inflight_req[victim] = request
        request.completion.add_callback(
            lambda _evt, req=request: system._on_writeback_complete(app, req)
        )
        system._submit(app, request)
        # Fault it back while the ~41 µs write is still on the wire.
        yield machine.engine.timeout(2.0)
        yield from system.handle_fault(app, 0, victim.vpn, True)

    proc = machine.engine.spawn(evict_then_fault())
    machine.engine.run_until_fired(proc, limit=1_000_000)
    assert app.stats.writeback_rescues == 1
    assert victim.resident
    assert not victim.in_swap_cache
    machine.engine.run(until=machine.engine.now + 1_000)  # write completes
    assert not victim.locked
    assert app.pool.stats.peak_used <= app.pool.capacity_pages


def test_two_threads_faulting_same_page_single_fetch():
    machine = Machine(seed=12)
    system, app = build(machine)
    cold = next(v for v, p in sorted(app.space.pages.items()) if not p.resident)

    def fault_once():
        yield from system.handle_fault(app, 0, cold, False)

    def fault_again():
        yield from system.handle_fault(app, 1, cold, False)

    machine.engine.spawn(fault_once())
    machine.engine.spawn(fault_again())
    machine.engine.run(until=10_000)
    assert app.stats.faults == 2
    assert app.stats.demand_swapins == 1  # second thread piggybacked
    assert app.space.pages[cold].resident


def test_prefetch_filter_skips_resident_and_inflight():
    machine = Machine(seed=13)
    system, app = build(machine)
    vpns = sorted(app.space.pages)
    resident = [v for v in vpns if app.space.pages[v].resident]
    cold = [v for v in vpns if not app.space.pages[v].resident]
    issued = system.issue_prefetch_vpns(app, resident[:4] + cold[:2] + cold[:2])
    # Residents skipped; duplicate cold proposals issued once.
    assert issued == 2
    assert app.stats.prefetches_issued == 2


def test_prefetch_of_unmapped_vpn_ignored():
    machine = Machine(seed=14)
    system, app = build(machine)
    issued = system.issue_prefetch_vpns(app, [10**9, 10**9 + 1])
    assert issued == 0


def test_inflight_prefetch_budget_respects_cache_capacity():
    machine = Machine(seed=15)
    system, app = build(machine, cache=32)
    cold = [v for v, p in sorted(app.space.pages.items()) if not p.resident]
    issued = system.issue_prefetch_vpns(app, cold[:200])
    assert issued <= max(8, 32 // 2)


def test_demand_read_clears_prefetch_timestamp():
    """§5.3: a demand request clears the entry timestamp so later
    faulting threads block instead of re-issuing."""
    machine = Machine(seed=16)
    system, app = build(machine)
    cold = next(v for v, p in sorted(app.space.pages.items()) if not p.resident)
    page = app.space.pages[cold]
    page.swap_entry.timestamp_us = 123.0  # stale marker

    def fault():
        yield from system.handle_fault(app, 0, cold, False)

    machine.engine.spawn(fault())
    machine.engine.run(until=10_000)
    assert page.swap_entry is None or page.swap_entry.timestamp_us is None


def test_oom_waits_for_outstanding_writebacks():
    """When every frame is pinned by in-flight writebacks, faulting
    threads congestion-wait instead of crashing."""
    machine = Machine(seed=17)
    system, app = build(machine, local=64, total=256)
    vpns = sorted(app.space.pages)

    def stream():
        for i in range(1500):
            yield (vpns[(i * 5) % len(vpns)], True, 0.02)

    procs = [spawn_app(system, app, [chunk_stream(stream()) for _ in range(3)])]
    run_to_completion(machine.engine, procs)  # must not raise
    assert app.finished_at_us is not None


def test_shared_cache_shrink_uncharges_page_owner():
    """In the shared baseline, one app's pressure can release another
    app's cached pages — the §3 swap-cache interference channel."""
    machine = Machine(seed=18)
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=4096,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=64),
    )
    apps = []
    for name in ("a", "b"):
        app = AppContext(
            machine.engine,
            CgroupConfig(name=name, n_cores=2, local_memory_pages=128),
        )
        app.space.map_region(256, name="heap")
        system.register_app(app)
        system.prepopulate(app, 0.3)
        apps.append(app)
    a, b = apps
    # Fill the shared cache with B's prefetched pages.
    cold_b = [v for v, p in sorted(b.space.pages.items()) if not p.resident]
    system.issue_prefetch_vpns(b, cold_b[:20])
    machine.engine.run(until=5_000)
    used_b = b.pool.used
    # A's forced shrink releases B's (clean, LRU) cached pages.
    freed = system._shrink_cache_if_needed(a, force_min=4)
    assert freed > 0
    assert b.pool.used < used_b
