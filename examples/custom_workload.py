#!/usr/bin/env python3
"""Defining a custom workload and running it on Canvas.

The library's workload interface is two methods: ``build`` maps regions
into the app's address space (and describes the heap to the runtime
model), and ``thread_batch_streams`` returns one stream per thread of
``AccessBatch`` chunks — numpy columns of ``(vpn, is_write, cpu_us)``
accesses, the form the driver consumes.  The ``*_batches`` producers in
``repro.workloads.patterns`` build such streams.  This example builds a
"log-structured store": writers append to a sequential log while
readers look up zipf-popular keys — and shows how Canvas's
per-application prefetcher handles the mix.

Run:  python examples/custom_workload.py
"""

from typing import Iterator, List

import numpy as np

from repro.core import CanvasSwapSystem
from repro.harness import Machine, run_to_completion, spawn_app
from repro.kernel import AppContext, CgroupConfig
from repro.workloads import patterns
from repro.workloads.base import Workload
from repro.workloads.batch import AccessBatch


class LogStructuredStore(Workload):
    """Appending writers + zipf readers over one keyspace."""

    name = "logstore"
    display_name = "Log-structured store"
    managed = False
    n_threads = 6  # 2 writers + 4 readers
    working_set_pages = 4096
    accesses_per_thread = 3000

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        log_pages = self.working_set_pages // 2
        self.log_vma = app.space.map_region(log_pages, name="log")
        self.index_vma = app.space.map_region(
            self.working_set_pages - log_pages, name="index"
        )
        self.attach_runtime(app)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        streams: List[Iterator[AccessBatch]] = []
        for writer in range(2):
            streams.append(
                patterns.sequential_batches(
                    self.log_vma,
                    self.accesses_per_thread,
                    write_ratio=1.0,
                    cpu_us=1.0,
                    start=writer * self.log_vma.n_pages // 2,
                )
            )
        for _reader in range(4):
            child = np.random.default_rng(rng.integers(1 << 31))
            streams.append(
                patterns.zipfian_batches(
                    self.index_vma,
                    self.accesses_per_thread,
                    child,
                    theta=0.9,
                    write_ratio=0.05,
                    cpu_us=1.5,
                )
            )
        return streams


def main() -> None:
    machine = Machine(seed=7)
    system = CanvasSwapSystem(machine.engine, machine.nic, telemetry=machine.telemetry)

    workload = LogStructuredStore(scale=0.5)
    local = workload.working_set_pages // 4
    app = AppContext(
        machine.engine,
        CgroupConfig(
            name="logstore",
            n_cores=6,
            local_memory_pages=local,
            swap_partition_pages=workload.working_set_pages,
            swap_cache_pages=max(96, local // 4),
        ),
    )
    workload.build(app, machine.rng.child("logstore").stream("build"))
    system.register_app(app)
    system.attach_runtime_handler(app)
    system.prepopulate(app, resident_fraction=0.2)

    streams = workload.thread_batch_streams(
        app, machine.rng.child("logstore").stream("s")
    )
    run_to_completion(machine.engine, [spawn_app(system, app, streams)])

    stats = app.stats
    print(f"completed in          {app.completion_time_us / 1000:8.2f} ms")
    print(f"faults                {stats.faults:8d}")
    print(
        f"prefetch contribution {100 * stats.prefetch_contribution:7.1f}% "
        f"(the sequential log prefetches; zipf reads mostly cannot)"
    )
    print(f"swap-outs             {stats.swapouts:8d}")
    print(f"lock-free swap-outs   {stats.reserved_swapouts:8d}")
    print(f"uffd forwards         {stats.uffd_forwards:8d} (app-tier escalations)")


if __name__ == "__main__":
    main()
