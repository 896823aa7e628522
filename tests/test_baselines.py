"""Tests for the Fastswap and Infiniswap comparator systems."""

from repro.baselines import FastswapSystem, InfiniswapSystem
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig, SwapSystemConfig
from repro.rdma.message import RequestKind
from repro.workloads.batch import chunk_stream


def build(machine, system_cls, **kwargs):
    system = system_cls(
        machine.engine,
        machine.nic,
        partition_pages=8192,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=256),
        **kwargs,
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(name="a", n_cores=4, local_memory_pages=256),
    )
    app.space.map_region(1024, name="heap")
    system.register_app(app)
    system.prepopulate(app, 0.2)
    return system, app


def seq_stream(app, n, write=True):
    vpns = sorted(app.space.pages)
    return chunk_stream((vpns[i % len(vpns)], write, 0.05) for i in range(n))


def test_fastswap_splits_demand_and_prefetch_qps():
    machine = Machine(seed=0)
    system, app = build(machine, FastswapSystem)
    assert system.sync_qp.priority < system.async_qp.priority
    from repro.rdma.message import RdmaOp, RdmaRequest

    part = system.partition
    demand = RdmaRequest(
        RdmaOp.READ, RequestKind.DEMAND, "a", part.pop_free(),
        completion=machine.engine.event(),
    )
    prefetch = RdmaRequest(
        RdmaOp.READ, RequestKind.PREFETCH, "a", part.pop_free(),
        completion=machine.engine.event(),
    )
    write = RdmaRequest(
        RdmaOp.WRITE, RequestKind.SWAPOUT, "a", part.pop_free(),
        completion=machine.engine.event(),
    )
    system._submit(app, demand)
    system._submit(app, prefetch)
    system._submit(app, write)
    assert system.sync_qp.enqueued_total == 1
    assert system.async_qp.enqueued_total == 1
    assert system.write_qp.enqueued_total == 1


def test_fastswap_runs_workload():
    machine = Machine(seed=1)
    system, app = build(machine, FastswapSystem)
    proc = spawn_app(system, app, [seq_stream(app, 2000)])
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
    assert app.stats.faults > 0


def test_fastswap_uses_larger_kswapd_batch():
    machine = Machine(seed=2)
    system, app = build(machine, FastswapSystem)
    assert system.config.kswapd_batch >= 32


def test_infiniswap_adds_block_layer_latency():
    solo_latencies = {}
    for cls in (FastswapSystem, InfiniswapSystem):
        machine = Machine(seed=3)
        system, app = build(machine, cls)
        proc = spawn_app(system, app, [seq_stream(app, 800, write=False)])
        run_to_completion(machine.engine, [proc])
        hist = machine.telemetry.latency_hist("a", RequestKind.DEMAND)
        solo_latencies[cls.__name__] = hist.percentile(50)
    assert (
        solo_latencies["InfiniswapSystem"]
        > solo_latencies["FastswapSystem"] + 2.0
    )


def test_infiniswap_write_waits_out_the_block_layer():
    from repro.rdma.message import RdmaOp, RdmaRequest

    machine = Machine(seed=7)
    system, app = build(machine, InfiniswapSystem)
    engine = machine.engine
    start = engine.now
    write = RdmaRequest(
        RdmaOp.WRITE, RequestKind.SWAPOUT, "a", system.partition.pop_free(),
        completion=engine.event(),
    )
    system._submit(app, write)
    assert write.enqueued_at_us == start  # block-layer time counts
    engine.run(until=start + system.block_layer_overhead_us - 0.01)
    assert system.write_qp.enqueued_total == 0
    engine.run(until=start + system.block_layer_overhead_us + 0.01)
    assert system.write_qp.enqueued_total == 1
    assert system.read_qp.enqueued_total == 0


def test_infiniswap_disables_entry_keeping():
    machine = Machine(seed=4)
    system, app = build(machine, InfiniswapSystem)
    assert not system.config.entry_keeping


def test_infiniswap_unsupported_workloads():
    machine = Machine(seed=5)
    system, app = build(machine, InfiniswapSystem)
    assert not system.supports("xgboost")
    assert not system.supports("spark_lr")
    assert system.supports("memcached")
    assert system.supports("snappy")


def test_infiniswap_completes_workload():
    machine = Machine(seed=6)
    system, app = build(machine, InfiniswapSystem)
    proc = spawn_app(system, app, [seq_stream(app, 1500)])
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
