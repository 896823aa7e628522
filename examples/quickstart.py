#!/usr/bin/env python3
"""Quickstart: run one application on the Canvas swap system.

Builds the simulated machine, provisions a cgroup with 25% of the
application's working set as local memory, runs a Memcached-style YCSB
workload on Canvas, and prints what the swap system did.

Run:  python examples/quickstart.py
"""

from repro.core import CanvasSwapSystem
from repro.harness import Machine, run_to_completion, spawn_app
from repro.kernel import AppContext, CgroupConfig
from repro.workloads import make_workload


def main() -> None:
    # One host: event engine + 40 Gbps RDMA fabric + telemetry.
    machine = Machine(seed=42)

    # The swap system under test: fully isolated, all three adaptive
    # optimizations enabled (§4, §5 of the paper).
    system = CanvasSwapSystem(machine.engine, machine.nic, telemetry=machine.telemetry)

    # A Table 2 workload, scaled down to laptop size.
    workload = make_workload("memcached", scale=0.25)
    working_set = workload.working_set_pages
    local = working_set // 4  # the paper's 25% local-memory configuration

    app = AppContext(
        machine.engine,
        CgroupConfig(
            name="memcached",
            n_cores=4,
            local_memory_pages=local,
            swap_partition_pages=working_set,  # local + remote > working set
            swap_cache_pages=max(96, local // 4),
        ),
    )

    # Map regions, attach the (native) runtime model, register with the
    # swap system, and lay out the initial resident set.
    workload.build(app, machine.rng.child("memcached").stream("build"))
    system.register_app(app)
    system.attach_runtime_handler(app)  # two-tier prefetch hook
    system.prepopulate(app, resident_fraction=0.2)

    # Spawn one simulated thread per workload thread and run.
    streams = workload.thread_batch_streams(
        app, machine.rng.child("memcached").stream("s")
    )
    process = spawn_app(system, app, streams)
    run_to_completion(machine.engine, [process])

    stats = app.stats
    print(f"completed in        {app.completion_time_us / 1000:8.2f} ms (simulated)")
    print(f"memory accesses     {stats.accesses:8d}")
    print(f"page faults         {stats.faults:8d} ({100 * stats.fault_rate:.1f}%)")
    print(f"demand swap-ins     {stats.demand_swapins:8d}")
    print(f"prefetches issued   {stats.prefetches_issued:8d}")
    print(f"prefetch contribution {100 * stats.prefetch_contribution:6.1f}%")
    print(f"swap-outs           {stats.swapouts:8d} (+{stats.clean_drops} free clean drops)")
    print(f"lock-free swap-outs {stats.reserved_swapouts:8d} (§5.1 reservations)")
    adaptive = system.adaptive_stats("memcached")
    print(f"reservation hit rate {100 * adaptive.lock_free_fraction:6.1f}%")


if __name__ == "__main__":
    main()
