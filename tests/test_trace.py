"""Tests for fault-trace recording and replay."""

import pytest

from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.harness.trace import FaultRecord, FaultTracer, load_trace, replay_streams
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.workloads.batch import chunk_stream, flatten_batches


def build(machine):
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=2048,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(shared_cache_pages=128),
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(name="a", n_cores=2, local_memory_pages=128),
    )
    app.space.map_region(512, name="heap")
    system.register_app(app)
    system.prepopulate(app, 0.2)
    return system, app


def run_scan(system, app, n=800):
    vpns = sorted(app.space.pages)

    def stream():
        for i in range(n):
            yield (vpns[i % len(vpns)], False, 0.5)

    proc = spawn_app(system, app, [chunk_stream(stream())])
    run_to_completion(system.engine, [proc])


def test_tracer_records_every_fault():
    machine = Machine(seed=0)
    system, app = build(machine)
    tracer = FaultTracer(system)
    run_scan(system, app)
    assert len(tracer) == app.stats.faults
    assert all(isinstance(r, FaultRecord) for r in tracer.records)
    assert all(r.stall_us >= 0 for r in tracer.records)
    times = [r.time_us for r in tracer.records]
    assert times == sorted(times)


def test_tracer_app_filter():
    machine = Machine(seed=0)
    system, app = build(machine)
    tracer = FaultTracer(system, apps=["someone-else"])
    run_scan(system, app)
    assert len(tracer) == 0


def test_dump_and_load_roundtrip(tmp_path):
    machine = Machine(seed=0)
    system, app = build(machine)
    tracer = FaultTracer(system)
    run_scan(system, app, n=300)
    path = tmp_path / "trace.jsonl"
    written = tracer.dump(path)
    loaded = load_trace(path)
    assert written == len(loaded) == len(tracer)
    assert loaded[0] == tracer.records[0]


def test_by_app_grouping():
    machine = Machine(seed=0)
    system, app = build(machine)
    tracer = FaultTracer(system)
    run_scan(system, app, n=300)
    grouped = tracer.by_app()
    assert set(grouped) == {"a"}
    assert len(grouped["a"]) == len(tracer)


def test_replay_preserves_fault_sequence():
    machine = Machine(seed=0)
    system, app = build(machine)
    tracer = FaultTracer(system)
    run_scan(system, app, n=600)
    recorded_vpns = [r.vpn for r in tracer.records]

    # Replay the trace against a fresh system.
    machine2 = Machine(seed=1)
    system2, app2 = build(machine2)
    tracer2 = FaultTracer(system2)
    streams = replay_streams(tracer.records)
    proc = spawn_app(system2, app2, streams)
    run_to_completion(machine2.engine, [proc])
    # The replay touches exactly the recorded pages (same multiset).
    assert app2.stats.accesses == len(recorded_vpns)
    assert sorted(r.vpn for r in tracer2.records) == sorted(
        set(recorded_vpns)
    ) or app2.stats.faults <= len(recorded_vpns)


def test_replay_streams_compute_gaps_nonnegative():
    records = [
        FaultRecord(0.0, "a", 0, 10, 5.0),
        FaultRecord(20.0, "a", 0, 11, 5.0),
        FaultRecord(21.0, "a", 0, 12, 5.0),  # overlaps previous stall
    ]
    (stream,) = replay_streams(records)
    accesses = list(flatten_batches(stream))
    assert [a[0] for a in accesses] == [10, 11, 12]
    assert all(a[2] >= 0 for a in accesses)


def test_replay_streams_keep_recorded_thread_ids():
    # Thread 2 faults first in the list (records arrive out of time
    # order), thread 1 never faults: stream k must still replay thread k,
    # or a JVM app's GC threads would replay under app thread ids.
    records = [
        FaultRecord(30.0, "a", 2, 22, 1.0),
        FaultRecord(20.0, "a", 2, 21, 1.0),
        FaultRecord(10.0, "a", 0, 10, 1.0),
    ]
    streams = replay_streams(records)
    assert [[a[0] for a in flatten_batches(s)] for s in streams] == [
        [10],
        [],
        [21, 22],
    ]


def test_replay_streams_rejects_mixed_apps():
    records = [FaultRecord(0.0, "a", 0, 1, 1.0), FaultRecord(1.0, "b", 0, 2, 1.0)]
    with pytest.raises(ValueError):
        replay_streams(records)
