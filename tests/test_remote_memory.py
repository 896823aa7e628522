"""Tests for demand-driven remote-memory provisioning (§4)."""

import pytest

from repro.core import CanvasConfig, CanvasSwapSystem, DemandDrivenRemoteMemory
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig
from repro.sim import Engine
from repro.swap import SwapPartition
from repro.workloads.batch import chunk_stream


def test_partition_grow_extends_free_list():
    part = SwapPartition("p", 16)
    new = part.grow(8)
    assert part.n_entries == 24
    assert part.free_count == 24
    assert len(new) == 8
    ids = {e.entry_id for e in part.entries}
    assert len(ids) == 24  # unique IDs continue past the original range


def test_partition_grow_invalid():
    part = SwapPartition("p", 4)
    with pytest.raises(ValueError):
        part.grow(0)


def test_maybe_grow_registers_when_low():
    engine = Engine()
    part = SwapPartition("p", 128)
    remote = DemandDrivenRemoteMemory(
        engine, part, limit_entries=1024, chunk_entries=256, low_water_entries=64
    )
    for _ in range(100):  # drain below the low-water mark
        part.pop_free()

    def proc():
        yield from remote.maybe_grow()

    engine.spawn(proc())
    engine.run(until=10_000)
    assert remote.stats.growths == 1
    assert part.n_entries == 128 + 256
    assert remote.stats.registration_stall_us > 0


def test_maybe_grow_noop_with_headroom():
    engine = Engine()
    part = SwapPartition("p", 512)
    remote = DemandDrivenRemoteMemory(engine, part, limit_entries=1024)

    def proc():
        yield from remote.maybe_grow()

    engine.spawn(proc())
    engine.run(until=1_000)
    assert remote.stats.growths == 0


def test_growth_respects_cgroup_limit():
    engine = Engine()
    part = SwapPartition("p", 100)
    remote = DemandDrivenRemoteMemory(
        engine, part, limit_entries=150, chunk_entries=256, low_water_entries=64
    )
    for _ in range(90):
        part.pop_free()

    def proc():
        yield from remote.maybe_grow()
        yield from remote.maybe_grow()

    engine.spawn(proc())
    engine.run(until=10_000)
    assert part.n_entries == 150  # clamped to the limit
    assert remote.at_limit


def test_ensure_untimed():
    engine = Engine()
    part = SwapPartition("p", 64)
    remote = DemandDrivenRemoteMemory(engine, part, limit_entries=1024)
    remote.ensure_untimed(500)
    assert part.free_count >= 500
    with pytest.raises(RuntimeError):
        remote.ensure_untimed(5000)


def test_limit_below_initial_rejected():
    engine = Engine()
    part = SwapPartition("p", 64)
    with pytest.raises(ValueError):
        DemandDrivenRemoteMemory(engine, part, limit_entries=32)


def test_canvas_demand_driven_end_to_end():
    """A workload runs to completion with partitions growing on demand."""
    machine = Machine(seed=4)
    system = CanvasSwapSystem(
        machine.engine,
        machine.nic,
        telemetry=machine.telemetry,
        canvas_config=CanvasConfig(
            demand_driven_remote=True, remote_chunk_entries=128
        ),
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(
            name="a",
            n_cores=4,
            local_memory_pages=128,
            swap_partition_pages=1024,
            swap_cache_pages=96,
        ),
    )
    app.space.map_region(512, name="heap")
    system.register_app(app)
    assert system._state["a"].remote is not None
    partition = app.swap_path.partition
    assert partition.n_entries == 128  # starts at one chunk
    system.prepopulate(app, resident_fraction=0.2)
    assert partition.n_entries >= 512 - 128  # setup registration
    vpns = sorted(app.space.pages)

    def stream():
        for i in range(3000):
            yield (vpns[i % len(vpns)], True, 0.2)

    proc = spawn_app(system, app, [chunk_stream(stream())])
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
    assert partition.n_entries <= 1024  # never exceeds the limit
