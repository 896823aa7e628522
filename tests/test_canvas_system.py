"""Integration tests for the Canvas swap system."""

import numpy as np

from repro.core import CanvasConfig
from repro.harness.driver import spawn_app, run_to_completion
from repro.harness.machine import Machine
from repro.mem import PageState
from repro.workloads.batch import chunk_stream
from tests.conftest import build_canvas, seq_stream


def test_per_app_partitions_and_caches_exist():
    machine = Machine(seed=0)
    system, apps = build_canvas(
        machine, apps_spec=[("a", 512, 128, 2), ("b", 512, 128, 2)]
    )
    assert system.partition_of("a") is not system.partition_of("b")
    assert system.cache_of("a") is not system.cache_of("b")
    assert system.partition_of("a").name == "a.swap"


def test_prepopulated_cold_pages_carry_reservations():
    machine = Machine(seed=0)
    system, apps = build_canvas(machine)
    app = apps["a"]
    cold = [p for p in app.space.pages.values() if not p.resident]
    assert cold
    assert all(p.reserved_entry is not None for p in cold)
    assert all(p.state is PageState.COLD_RESERVED for p in cold)


def test_isolation_only_variant_has_no_reservations():
    machine = Machine(seed=0)
    config = CanvasConfig(
        adaptive_allocation=False, two_tier_prefetch=False, horizontal_scheduling=False
    )
    system, apps = build_canvas(machine, canvas_config=config)
    app = apps["a"]
    assert system.adaptive_stats("a") is None
    assert system.two_tier_stats("a") is None
    cold = [p for p in app.space.pages.values() if not p.resident]
    assert all(p.reserved_entry is None for p in cold)


def test_workload_completes_on_canvas():
    machine = Machine(seed=1)
    system, apps = build_canvas(machine)
    app = apps["a"]
    proc = spawn_app(system, app, [seq_stream(app, 3000, write=True)])
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
    assert app.stats.faults > 0
    # Adaptive allocation turned most swap-outs lock-free.
    stats = system.adaptive_stats("a")
    assert stats.reserved_swapouts > stats.locked_allocations


def test_frame_accounting_holds_on_canvas():
    machine = Machine(seed=2)
    system, apps = build_canvas(machine)
    app = apps["a"]
    proc = spawn_app(system, app, [seq_stream(app, 2500, write=True)])
    run_to_completion(machine.engine, [proc])
    assert app.pool.stats.peak_used <= app.pool.capacity_pages


def test_two_apps_do_not_share_entries():
    machine = Machine(seed=3)
    system, apps = build_canvas(
        machine, apps_spec=[("a", 512, 128, 2), ("b", 512, 128, 2)]
    )
    procs = [
        spawn_app(system, apps["a"], [seq_stream(apps["a"], 1500, write=True)]),
        spawn_app(system, apps["b"], [seq_stream(apps["b"], 1500, write=True)]),
    ]
    run_to_completion(machine.engine, procs)
    for name, app in apps.items():
        for page in app.space.pages.values():
            if page.swap_entry is not None:
                assert page.swap_entry.partition_name == f"{name}.swap"


def test_shared_pages_use_global_partition():
    machine = Machine(seed=4)
    system, apps = build_canvas(
        machine, apps_spec=[("a", 512, 256, 2), ("b", 512, 256, 2)]
    )
    a, b = apps["a"], apps["b"]
    shared_vma = a.space.map_region(64, name="shm")
    b.space.map_shared_from(a.space, shared_vma)
    page = a.space.page(shared_vma.start_vpn)
    assert page.shared
    assert system._cache_for(a, page) is system.global_cache
    assert system._allocator_for(a, page) is system.global_allocator


def test_scheduler_registered_per_app():
    machine = Machine(seed=5)
    system, apps = build_canvas(
        machine, apps_spec=[("a", 512, 128, 2), ("b", 512, 128, 2)]
    )
    assert set(system.scheduler._apps) == {"a", "b"}


def test_attach_runtime_handler_after_registration():
    machine = Machine(seed=6)
    system, apps = build_canvas(machine)
    app = apps["a"]

    class Runtime:
        def handle_forwarded_fault(self, tid, vpn):
            return []

    app.runtime = Runtime()
    system.attach_runtime_handler(app)
    assert system._state["a"].uffd.has_handler


def test_prefetch_drop_unwinds_state():
    machine = Machine(seed=7)
    system, apps = build_canvas(machine)
    app = apps["a"]
    page = next(p for p in app.space.pages.values() if not p.resident)
    entry = page.swap_entry
    app.pool.try_charge(1)  # mimic the prefetch charge
    from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind

    cache = system.cache_of("a")
    request = RdmaRequest(RdmaOp.READ, RequestKind.PREFETCH, "a", entry, page)
    system._inflight_req[page] = request
    system._inflight[page] = machine.engine.event()
    page.locked = True
    cache.insert(entry, page, prefetched=True)
    used_before = app.pool.used
    system._on_prefetch_dropped(request)
    assert not page.locked
    assert not page.in_swap_cache
    assert app.pool.used == used_before - 1
    assert page not in system._inflight_req


def test_canvas_full_run_with_drops_and_two_tier():
    """End-to-end: pointer-chasing app exercises two-tier forwarding."""
    machine = Machine(seed=8)
    system, apps = build_canvas(machine)
    app = apps["a"]

    from repro.runtime import JvmRuntime

    runtime = JvmRuntime("a")
    runtime.register_threads([0, 1], [])
    vpns = sorted(app.space.pages)
    rng = np.random.default_rng(0)
    chain = list(rng.permutation(vpns))
    for src, dst in zip(chain, chain[1:]):
        runtime.record_reference(src, dst)
    app.runtime = runtime
    system.attach_runtime_handler(app)

    def chase(start):
        for i in range(1500):
            yield (chain[(start + i) % len(chain)], False, 0.1)

    proc = spawn_app(
        system,
        app,
        [chunk_stream(chase(0)), chunk_stream(chase(len(chain) // 2))],
    )
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
    # Pointer chasing defeats kernel readahead → faults get forwarded up.
    assert app.stats.uffd_forwards > 0
    assert runtime.stats.faults_handled > 0
