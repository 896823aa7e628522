"""Unit tests for the application thread driver."""

import pytest

from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.sim import SimulationError
from repro.workloads.batch import chunk_stream


def build(machine, local=128, total=256, cores=2):
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=2048,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=128),
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(name="a", n_cores=cores, local_memory_pages=local),
    )
    app.space.map_region(total, name="heap")
    system.register_app(app)
    system.prepopulate(app, resident_fraction=local / total * 0.8)
    return system, app


def build_fully_resident(machine):
    """Local memory twice the working set: no reclaim, no faults."""
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=2048,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=128),
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(name="a", n_cores=2, local_memory_pages=512),
    )
    app.space.map_region(256, name="heap")
    system.register_app(app)
    system.prepopulate(app, resident_fraction=1.0)
    return system, app


def test_all_resident_run_is_pure_cpu():
    machine = Machine(seed=0)
    system, app = build_fully_resident(machine)
    vpns = sorted(app.space.pages)
    accesses = [(vpns[i % len(vpns)], False, 1.0) for i in range(100)]
    proc = spawn_app(system, app, [chunk_stream(accesses)])
    run_to_completion(machine.engine, [proc])
    assert app.stats.faults == 0
    assert app.stats.accesses == 100
    # 100 accesses x 1µs CPU on one thread.
    assert app.completion_time_us == pytest.approx(100.0, rel=0.05)


def test_cpu_flush_batches_reduce_event_count():
    machine = Machine(seed=0)
    system, app = build_fully_resident(machine)
    vpns = sorted(app.space.pages)
    accesses = [(vpns[i % len(vpns)], False, 0.5) for i in range(200)]
    proc = spawn_app(system, app, [chunk_stream(accesses)], cpu_flush_us=50.0)
    run_to_completion(machine.engine, [proc])
    # Total CPU time still fully charged despite batching.
    assert app.cores.stats.busy_us == pytest.approx(100.0, rel=0.05)


def test_write_accesses_dirty_pages():
    machine = Machine(seed=0)
    system, app = build(machine)
    vpn = sorted(app.space.pages)[0]
    proc = spawn_app(system, app, [chunk_stream([(vpn, True, 0.1)])])
    run_to_completion(machine.engine, [proc])
    assert app.space.page(vpn).dirty


def test_started_and_finished_timestamps():
    machine = Machine(seed=0)
    system, app = build(machine)
    vpns = sorted(app.space.pages)
    proc = spawn_app(system, app, [chunk_stream([(v, False, 0.5) for v in vpns[:50]])])
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
    assert app.finished_at_us >= app.started_at_us
    assert app.completion_time_us > 0


def test_spawn_app_spawns_only_threads_and_joins_on_the_last(monkeypatch):
    machine = Machine(seed=0)
    engine = machine.engine
    system, app = build_fully_resident(machine)
    vpns = sorted(app.space.pages)
    streams = [chunk_stream([(v, False, 1.0) for v in vpns[:n]]) for n in (10, 40, 20)]
    spawned = []
    real_spawn = engine.spawn

    def spawn(generator, name=""):
        spawned.append(real_spawn(generator, name))
        return spawned[-1]

    monkeypatch.setattr(engine, "spawn", spawn)
    join = spawn_app(system, app, streams)
    monkeypatch.undo()
    assert [proc.name for proc in spawned] == ["a.t0", "a.t1", "a.t2"]
    exits = []
    for proc in spawned:
        proc.add_callback(lambda _proc: exits.append(engine.now))
    run_to_completion(engine, [join])
    assert app.started_at_us == 0.0
    assert app.finished_at_us == max(exits) > min(exits)


def test_multiple_threads_complete_together():
    machine = Machine(seed=0)
    system, app = build(machine, cores=4)
    vpns = sorted(app.space.pages)
    streams = [chunk_stream([(v, False, 0.2) for v in vpns[:40]]) for _ in range(4)]
    proc = spawn_app(system, app, streams)
    run_to_completion(machine.engine, [proc])
    assert app.stats.accesses == 160


def test_run_to_completion_respects_limit():
    machine = Machine(seed=0)

    def forever(eng):
        while True:
            yield eng.timeout(1000.0)

    proc = machine.engine.spawn(forever(machine.engine))
    with pytest.raises(SimulationError):
        run_to_completion(machine.engine, [proc], limit_us=10_000.0)


def test_profiled_run_admits_faults_through_groups(monkeypatch):
    """A profiled run takes the production path: every fault goes
    through ``handle_fault_group``, the NIC serves exactly what an
    unprofiled run serves (every counter equal), and the unprofiled
    golden digest reproduces."""
    from dataclasses import asdict

    from repro.harness.experiment import ExperimentConfig, run_experiment
    from repro.harness.results import result_digest
    from repro.metrics.profiler import SimProfiler
    from tests.conftest import record_group_sizes
    from tests.golden import golden
    from tests.golden.matrix import system_key

    config = ExperimentConfig(system="canvas", scale=0.03, seed=11)
    plain = run_experiment(["memcached"], config).machine.nic.stats
    sizes = record_group_sizes(monkeypatch)
    profiler = SimProfiler()
    result = run_experiment(["memcached"], config, profiler=profiler)
    faults = sum(r.stats.faults for r in result.results.values())
    assert faults > 0
    assert sum(sizes["fault"]) == faults
    assert asdict(result.machine.nic.stats) == asdict(plain)
    assert profiler.sections["kernel.fault"] > 0.0
    assert result_digest(result) == golden(system_key("canvas"))
