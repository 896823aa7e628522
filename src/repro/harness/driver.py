"""Application thread driver.

Turns a workload's access stream into simulated thread behaviour: fast
in-place accesses for resident pages (CPU time batched onto the app's
core set) and full fault handling through the swap system otherwise.

Faulting threads release their core while blocked on I/O — the simulated
equivalent of the kernel scheduling another runnable thread during a
swap-in.

Each thread consumes :class:`~repro.workloads.batch.AccessBatch` chunks
through ``BaseSwapSystem.consume_batch``, which classifies and retires
whole runs of resident accesses per call, and admits each run of misses
through ``BaseSwapSystem.handle_fault_group``.  Simulated results do not
depend on where a stream's batch boundaries fall.
"""

from __future__ import annotations

from typing import Generator, Iterable, Iterator

from repro.kernel.cgroup import AppContext
from repro.kernel.swap_system import (
    BATCH_FAULT,
    BATCH_FLUSH,
    BaseSwapSystem,
)

__all__ = ["drive_thread", "run_to_completion", "spawn_app"]


def drive_thread(
    system: BaseSwapSystem,
    app: AppContext,
    thread_id: int,
    batches,
    cpu_flush_us: float = 25.0,
) -> Generator:
    """Run one application thread's batched access stream to completion.

    ``consume_batch`` retires runs of resident accesses in one call; the
    driver only surfaces at flush boundaries, fault groups, and batch
    ends.  Resident accesses accumulate their CPU cost and flush it to
    the app's core set in ``cpu_flush_us`` slices, keeping the event
    count per access O(1/batch) instead of O(1).  Every fault is
    admitted through ``handle_fault_group``, which resolves the whole
    run of consecutive non-resident accesses and returns the first index
    it did not consume.  The driver carries no profiling code: a
    profiled run executes exactly this loop, under cProfile.
    """
    pending_cpu = 0.0
    consume = system.consume_batch
    fault_group = system.handle_fault_group
    execute = app.cores.execute
    for batch in batches:
        n = len(batch)
        i = 0
        while i < n:
            i, pending_cpu, outcome = consume(app, batch, i, pending_cpu, cpu_flush_us)
            if outcome == BATCH_FLUSH:
                yield from execute(pending_cpu)
                pending_cpu = 0.0
            elif outcome == BATCH_FAULT:
                i = yield from fault_group(app, thread_id, batch, i, pending_cpu)
                pending_cpu = 0.0
    if pending_cpu > 0.0:
        yield from execute(pending_cpu)


def run_to_completion(engine, processes, limit_us: float = 60_000_000_000.0) -> float:
    """Run the engine until every given process (or join event) fires.

    Daemon processes (kswapd, NIC dispatch, hot-page scanners) never
    exit, so ``engine.run()`` would spin on their periodic timers
    forever; this waits exactly for the application joins instead.
    Returns the finish time.  ``limit_us`` guards against hangs.
    """
    from repro.sim.engine import AllOf

    gate = AllOf(engine, processes)
    engine.run_until_fired(gate, limit=limit_us)
    return engine.now


def spawn_app(
    system: BaseSwapSystem,
    app: AppContext,
    thread_streams: Iterable[Iterator],
    cpu_flush_us: float = 25.0,
):
    """Spawn one process per thread stream; returns their join event.

    Each stream yields :class:`~repro.workloads.batch.AccessBatch` chunks
    (wrap a scalar ``(vpn, is_write, cpu_us)`` stream with
    :func:`~repro.workloads.batch.chunk_stream`).  Marks
    ``app.started_at_us`` now and ``app.finished_at_us`` when the last
    thread exits, which is what the completion-time figures report.  The
    join is an :class:`~repro.sim.engine.Event`: yield it, or pass it to
    :func:`run_to_completion` or ``all_of``.
    """
    engine = system.engine
    app.started_at_us = engine.now
    threads = [
        engine.spawn(
            drive_thread(system, app, thread_id, stream, cpu_flush_us),
            name=f"{app.name}.t{thread_id}",
        )
        for thread_id, stream in enumerate(thread_streams)
    ]
    join = engine.all_of(threads)

    def finished(_event) -> None:
        app.finished_at_us = engine.now

    join.add_callback(finished)
    return join
