"""1,000-cgroup co-run: the kernel's per-cgroup state at multi-tenant scale.

Not a paper figure — the harness macro-benchmark guarding the flat-array
kernel state (generation-stamp LRU over each address space's VPN-indexed
arrays, vectorized ``consume_batch``).  Canvas's motivating setting is
many cgroups sharing one swap path; this benchmark builds an elastic
co-run of hundreds to a thousand single-core cgroups that arrive
staggered, run mostly-resident access streams, and depart as they
finish.  A minority of cgroups run above their local memory so
reclaim/fault slow-path traffic stays in the mix.

The guarded number is events/sec (engine callbacks dispatched per wall
second) at 1,000 cgroups.  The benchmark keeps its historical name so
its baseline entry still lines up.
"""

import time

import numpy as np

from _common import print_header
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel.cgroup import AppContext, CgroupConfig
from repro.kernel.swap_system import LinuxSwapSystem, SwapSystemConfig
from repro.sim.rng import derive_seed
from repro.workloads.batch import emit_batches

SEED = 7
#: Per-cgroup working set; small enough that 1,000 cgroups build fast,
#: large enough that reclaim has real victim choices.
WS_PAGES = 48
#: Mean accesses per cgroup; the actual count varies ±50% per app so
#: departures spread out instead of finishing in one wave.
ACCESSES_PER_APP = 24_000
#: Every Nth cgroup runs above its local memory (reclaim + faults).
#: Pressured cgroups run a shorter stream: the event-driven fault and
#: reclaim slow path stays in the mix as realism, not as the dominant
#: term — the guarded number is the resident path the co-run spends
#: most of its time on.
PRESSURED_EVERY = 20
PRESSURED_LOCAL_FRACTION = 0.9
PRESSURED_ACCESS_DIVISOR = 30
#: Arrivals are spread uniformly over this window (elastic arrive).
ARRIVAL_SPREAD_US = 20_000.0
CPU_US = 0.05
CPU_FLUSH_US = 800.0

SWEEP = (100, 300, 1000)
N_FULL = 1000


def build_corun(n_apps: int, seed: int = SEED):
    """An n-app elastic co-run on a Linux-baseline system.

    Returns ``(machine, apps, procs)``; ``procs`` are the arrival
    wrappers, so waiting on them covers sleep-then-run of every app.
    """
    machine = Machine(seed=seed)
    engine = machine.engine
    system = LinuxSwapSystem(
        engine,
        machine.nic,
        partition_pages=max(4096, n_apps * WS_PAGES),
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=max(256, 4 * n_apps)),
    )
    apps = []
    procs = []
    for index in range(n_apps):
        name = f"cg{index:04d}"
        pressured = index % PRESSURED_EVERY == 0
        if pressured:
            local = int(WS_PAGES * PRESSURED_LOCAL_FRACTION)
            resident_fraction = PRESSURED_LOCAL_FRACTION * 0.85
        else:
            # Local memory above the working set: pure resident fast
            # path, no kswapd pressure (same headroom rule the
            # experiment harness uses).
            local = int(WS_PAGES * 1.3)
            resident_fraction = 1.0
        app = AppContext(
            engine,
            CgroupConfig(name=name, n_cores=1, local_memory_pages=local),
        )
        vma = app.space.map_region(WS_PAGES, name="heap")
        system.register_app(app)
        system.prepopulate(app, resident_fraction=resident_fraction)
        rng = np.random.default_rng(derive_seed(seed, name))
        base = ACCESSES_PER_APP // PRESSURED_ACCESS_DIVISOR if pressured else ACCESSES_PER_APP
        n = int(base * (0.5 + rng.random()))
        vpns = rng.integers(vma.start_vpn, vma.end_vpn, size=n)
        writes = rng.random(n) < 0.3
        arrival = float(rng.random() * ARRIVAL_SPREAD_US)
        batches = emit_batches(vpns, writes, CPU_US)

        def arrive(app=app, batches=batches, arrival=arrival):
            yield engine.sleep(arrival)
            proc = spawn_app(system, app, [batches], cpu_flush_us=CPU_FLUSH_US)
            yield engine.all_of([proc])

        apps.append(app)
        procs.append(engine.spawn(arrive(), name=f"{name}.arrival"))
    return machine, apps, procs


def run_corun(n_apps: int):
    """Build + run one co-run; returns (wall_s, steps, accesses, apps)."""
    machine, apps, procs = build_corun(n_apps)
    start = time.perf_counter()
    run_to_completion(machine.engine, procs)
    wall = time.perf_counter() - start
    accesses = sum(app.stats.accesses for app in apps)
    return wall, machine.engine.step_count, accesses, apps


def test_scale_cgroups_flat_vs_legacy(benchmark):
    """Events/sec at 1,000 cgroups, after a smaller-scale sweep."""
    print_header("cgroup-scale co-run sweep")
    print(f"{'cgroups':>8} {'wall_s':>8} {'events/s':>12} {'accesses/s':>12}")
    for n_apps in SWEEP:
        if n_apps == N_FULL:
            continue
        wall, steps, accesses, _ = run_corun(n_apps)
        print(
            f"{n_apps:>8} {wall:>8.3f} {steps / wall:>12.0f} "
            f"{accesses / wall:>12.0f}"
        )

    state = {}

    def setup():
        machine, apps, procs = build_corun(N_FULL)
        state["machine"], state["apps"], state["procs"] = machine, apps, procs
        return (), {}

    def run_full():
        run_to_completion(state["machine"].engine, state["procs"])
        return state["machine"].engine.step_count

    steps = benchmark.pedantic(run_full, setup=setup, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.min
    apps = state["apps"]
    accesses = sum(app.stats.accesses for app in apps)
    events_per_second = steps / seconds

    # Elastic arrive/depart actually happened: starts and finishes are
    # spread, not one synchronized wave.
    starts = sorted(app.started_at_us for app in apps)
    finishes = sorted(app.finished_at_us for app in apps)
    assert starts[-1] - starts[0] > ARRIVAL_SPREAD_US / 2
    assert finishes[-1] > finishes[0]
    assert sum(1 for app in apps if app.stats.faults) >= N_FULL // PRESSURED_EVERY

    benchmark.extra_info["cgroups"] = N_FULL
    benchmark.extra_info["events"] = steps
    benchmark.extra_info["events_per_second"] = events_per_second
    benchmark.extra_info["accesses_per_second"] = accesses / seconds

    print_header("1,000-cgroup co-run")
    print(
        f"{steps} events in {seconds:.3f}s -> "
        f"{events_per_second / 1e3:.0f}k events/s, "
        f"{accesses / seconds / 1e6:.2f}M accesses/s"
    )
