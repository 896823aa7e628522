"""Application thread driver.

Turns a workload's access stream into simulated thread behaviour: fast
in-place accesses for resident pages (CPU time batched onto the app's
core set) and full fault handling through the swap system otherwise.

Faulting threads release their core while blocked on I/O — the simulated
equivalent of the kernel scheduling another runnable thread during a
swap-in.

Two drivers share the same semantics:

* :func:`app_thread` — scalar protocol, one generator round-trip per
  access (compatibility path, ``ExperimentConfig.batched_streams=False``);
* :func:`app_thread_batched` — consumes
  :class:`~repro.workloads.batch.AccessBatch` chunks through
  ``BaseSwapSystem.consume_batch``, which classifies and retires whole
  runs of resident accesses per call, and admits each run of misses
  through ``BaseSwapSystem.handle_fault_group``.  Yield sequences (and
  therefore all simulated timestamps and statistics) are bit-identical
  between the two.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Iterable, Iterator, Tuple

from repro.kernel.cgroup import AppContext
from repro.kernel.swap_system import (
    BATCH_FAULT,
    BATCH_FLUSH,
    BaseSwapSystem,
)

__all__ = ["Access", "app_thread", "app_thread_batched", "spawn_app"]

#: (vpn, is_write, cpu_us) — one memory access and its attached compute.
Access = Tuple[int, bool, float]


def app_thread(
    system: BaseSwapSystem,
    app: AppContext,
    thread_id: int,
    accesses: Iterable[Access],
    cpu_flush_us: float = 25.0,
    profiler=None,
) -> Generator:
    """Run one application thread's access stream to completion.

    Resident-page accesses accumulate their CPU cost and flush it to the
    app's core set in ``cpu_flush_us`` slices, keeping the event count per
    access O(1/batch) instead of O(1).
    """
    pending_cpu = 0.0
    pages = app.space.pages
    stats = app.stats
    # Bound methods hoisted out of the loop: this is the single hottest
    # Python loop in the unbatched simulator (one iteration per access).
    note_access = system.note_access
    handle_fault = system.handle_fault
    execute = app.cores.execute
    if profiler is not None:
        accesses = profiler.timed_iter("stream_gen", iter(accesses))
        handle_fault = profiler.timed_generator_fn("fault_path", handle_fault)
    for vpn, write, cpu_us in accesses:
        stats.accesses += 1
        pending_cpu += cpu_us
        page = pages[vpn]
        if page.resident:
            note_access(app, page, write)
            if pending_cpu >= cpu_flush_us:
                yield from execute(pending_cpu)
                pending_cpu = 0.0
        else:
            if pending_cpu > 0.0:
                yield from execute(pending_cpu)
                pending_cpu = 0.0
            yield from handle_fault(app, thread_id, vpn, write)
            if write:
                page.dirty = True
    if pending_cpu > 0.0:
        yield from execute(pending_cpu)


def app_thread_batched(
    system: BaseSwapSystem,
    app: AppContext,
    thread_id: int,
    batches,
    cpu_flush_us: float = 25.0,
    profiler=None,
) -> Generator:
    """Batched twin of :func:`app_thread`.

    ``consume_batch`` retires runs of resident accesses in one call; the
    driver only surfaces at flush boundaries, fault groups, and batch
    ends — performing exactly the yields the scalar driver would.  Every
    fault is admitted through ``handle_fault_group``, which resolves the
    whole run of consecutive non-resident accesses and returns the first
    index it did not consume.  A profiler, when attached, times the
    consume core and the fault groups without changing either.
    """
    pending_cpu = 0.0
    consume = system.consume_batch
    fault_group = system.handle_fault_group
    execute = app.cores.execute
    if profiler is not None:
        batches = profiler.timed_iter("stream_gen", iter(batches))
        consume = partial(consume, profiler=profiler)
        fault_group = profiler.timed_generator_fn("fault_path", fault_group)
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
    """Run the engine until every given process finishes.

    Daemon processes (kswapd, schedulers, hot-page scanners) never exit,
    so ``engine.run()`` would spin on their periodic timers forever; this
    waits exactly for the application processes instead.  Returns the
    finish time.  ``limit_us`` guards against hangs.
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
    batched: bool = False,
    profiler=None,
):
    """Spawn one process per thread stream; returns the joined process.

    ``batched=True`` treats each stream as AccessBatch chunks and drives
    it through :func:`app_thread_batched`.  Marks ``app.started_at_us`` /
    ``app.finished_at_us`` around the whole application, which is what
    the completion-time figures report.
    """
    engine = system.engine
    thread_fn = app_thread_batched if batched else app_thread

    def run_all():
        app.started_at_us = engine.now
        threads = [
            engine.spawn(
                thread_fn(system, app, thread_id, stream, cpu_flush_us, profiler),
                name=f"{app.name}.t{thread_id}",
            )
            for thread_id, stream in enumerate(thread_streams)
        ]
        yield engine.all_of(threads)
        app.finished_at_us = engine.now

    return engine.spawn(run_all(), name=f"{app.name}.main")
