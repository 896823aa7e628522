"""Integration tests for the Linux-baseline swap system."""

from repro.harness.driver import spawn_app
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.prefetch import KernelReadahead
from repro.workloads.batch import chunk_stream
from tests.conftest import build_system, sequential_accesses


def test_fault_on_swapped_page_fetches_it():
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    cold_vpn = vma.end_vpn - 1
    page = app.space.page(cold_vpn)
    assert not page.resident

    def proc():
        yield from system.handle_fault(app, 0, cold_vpn, False)

    machine.engine.spawn(proc())
    machine.engine.run(until=10_000)
    assert page.resident
    assert app.stats.demand_swapins == 1
    assert app.stats.faults == 1
    assert machine.nic.stats.reads_completed >= 1


def test_fault_frees_entry_only_without_entry_keeping():
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    system.config.entry_keeping = False
    cold_vpn = vma.end_vpn - 1
    page = app.space.page(cold_vpn)
    entry = page.swap_entry

    def proc():
        yield from system.handle_fault(app, 0, cold_vpn, False)

    machine.engine.spawn(proc())
    machine.engine.run(until=10_000)
    assert page.swap_entry is None
    assert not entry.allocated  # returned to the free list


def test_entry_keeping_retains_entry_on_clean_page():
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    assert system.config.entry_keeping
    cold_vpn = vma.end_vpn - 1
    page = app.space.page(cold_vpn)

    def proc():
        yield from system.handle_fault(app, 0, cold_vpn, False)

    machine.engine.spawn(proc())
    machine.engine.run(until=10_000)
    assert page.resident
    assert page.swap_entry is not None
    assert page.swap_entry.allocated


def test_sequential_scan_completes_and_swaps():
    machine = Machine(seed=2)
    system, app, vma = build_system(machine, prefetcher=KernelReadahead())
    n_accesses = 4000
    spawn_app(system, app, [sequential_accesses(vma, n_accesses, write=True)])
    machine.engine.run(until=50_000_000)
    assert app.finished_at_us is not None, "workload did not finish"
    assert app.stats.accesses == n_accesses
    assert app.stats.faults > 0
    assert app.stats.swapouts > 0
    # Sequential scans are what readahead is built for.
    assert app.stats.prefetches_issued > 0
    assert app.stats.cache_hits > 0


def test_prefetching_reduces_demand_swapins():
    def run(prefetcher):
        machine = Machine(seed=3)
        system, app, vma = build_system(machine, prefetcher=prefetcher)
        spawn_app(system, app, [sequential_accesses(vma, 3000)])
        machine.engine.run(until=50_000_000)
        assert app.finished_at_us is not None
        return app

    without = run(None)
    with_ra = run(KernelReadahead())
    assert with_ra.stats.demand_swapins < without.stats.demand_swapins * 0.6
    assert with_ra.completion_time_us < without.completion_time_us


def test_frame_pool_never_exceeds_capacity():
    machine = Machine(seed=4)
    system, app, vma = build_system(machine, local_pages=128, total_pages=512)
    spawn_app(system, app, [sequential_accesses(vma, 2000, write=True)])
    machine.engine.run(until=50_000_000)
    assert app.finished_at_us is not None
    assert app.pool.stats.peak_used <= app.pool.capacity_pages


def test_all_pages_accounted_after_run():
    """Invariant: every page is resident, cached, or remote with an entry."""
    machine = Machine(seed=5)
    system, app, vma = build_system(machine)
    spawn_app(system, app, [sequential_accesses(vma, 2000, write=True)])
    machine.engine.run(until=50_000_000)
    assert app.finished_at_us is not None
    for page in app.space.pages.values():
        if page.resident:
            continue
        assert page.swap_entry is not None
        assert page.swap_entry.allocated


def test_concurrent_threads_on_same_pages():
    machine = Machine(seed=6)
    system, app, vma = build_system(machine, n_cores=8)
    streams = [sequential_accesses(vma, 1500) for _ in range(8)]
    spawn_app(system, app, streams)
    machine.engine.run(until=100_000_000)
    assert app.finished_at_us is not None
    assert app.stats.accesses == 8 * 1500


def test_multi_app_sharing_interferes():
    """Co-running apps each run slower than one app alone."""

    def strided_stream(vma, start, n, write, cpu_us=0.05):
        for i in range(n):
            yield (vma.start_vpn + ((start + i) % vma.n_pages), write, cpu_us)

    def run(n_apps):
        machine = Machine(seed=7)
        config = SwapSystemConfig(shared_cache_pages=64)
        system = LinuxSwapSystem(
            machine.engine,
            machine.nic,
            partition_pages=65536,
            telemetry=machine.telemetry,
            config=config,
        )
        apps = []
        for i in range(n_apps):
            app = AppContext(
                machine.engine,
                CgroupConfig(name=f"app{i}", n_cores=8, local_memory_pages=200),
            )
            vma = app.space.map_region(1024, name="heap")
            system.register_app(app)
            system.prepopulate(app, resident_fraction=0.15)
            streams = [
                chunk_stream(strided_stream(vma, t * 128, 1200, write=True))
                for t in range(8)
            ]
            spawn_app(system, app, streams)
            apps.append(app)
        machine.engine.run(until=400_000_000)
        for app in apps:
            assert app.finished_at_us is not None
        return apps[0].completion_time_us

    solo = run(1)
    corun = run(3)
    assert corun > solo * 1.2


def test_swapout_throughput_recorded():
    machine = Machine(seed=8)
    system, app, vma = build_system(machine)
    spawn_app(system, app, [sequential_accesses(vma, 3000, write=True)])
    machine.engine.run(until=50_000_000)
    meter = machine.telemetry.swapout_rate("app")
    assert meter.total == app.stats.swapouts + app.stats.clean_drops
    assert meter.total > 0


def test_read_bandwidth_recorded_per_app():
    machine = Machine(seed=9)
    system, app, vma = build_system(machine)
    spawn_app(system, app, [sequential_accesses(vma, 2000)])
    machine.engine.run(until=50_000_000)
    assert machine.telemetry.read_bandwidth.totals.get("app", 0) > 0


def test_fault_stall_time_accumulates():
    machine = Machine(seed=10)
    system, app, vma = build_system(machine)
    spawn_app(system, app, [sequential_accesses(vma, 1000)])
    machine.engine.run(until=50_000_000)
    assert app.stats.fault_stall_us > 0
    assert app.stats.alloc_stall_us >= 0
