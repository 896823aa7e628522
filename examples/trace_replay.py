#!/usr/bin/env python3
"""Record a fault trace on one swap system, replay it on another.

Records every page fault XGBoost takes while running on the shared
Linux 5.5 swap path, dumps the trace to JSON lines, then replays the
exact same fault sequence (with the recorded compute gaps) against
Canvas — an apples-to-apples comparison of how the two systems serve an
identical demand stream.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro.core import CanvasSwapSystem
from repro.harness import (
    FaultTracer,
    Machine,
    load_trace,
    replay_streams,
    run_to_completion,
    spawn_app,
)
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.workloads import make_workload


def build_app(machine, workload, canvas: bool):
    local = workload.working_set_pages // 4
    app = AppContext(
        machine.engine,
        CgroupConfig(
            name="xgboost",
            n_cores=16,
            local_memory_pages=local,
            swap_partition_pages=workload.working_set_pages,
            swap_cache_pages=max(96, local // 4),
        ),
    )
    workload.build(app, machine.rng.child("xgboost").stream("build"))
    if canvas:
        system = CanvasSwapSystem(
            machine.engine, machine.nic, telemetry=machine.telemetry
        )
    else:
        system = LinuxSwapSystem(
            machine.engine,
            machine.nic,
            partition_pages=workload.working_set_pages * 2,
            telemetry=machine.telemetry,
            config=SwapSystemConfig(),
        )
    system.register_app(app)
    system.prepopulate(app, resident_fraction=0.2)
    return system, app


def main() -> None:
    workload = make_workload("xgboost", scale=0.2)

    # -- record on Linux ------------------------------------------------
    machine = Machine(seed=5)
    system, app = build_app(machine, workload, canvas=False)
    tracer = FaultTracer(system)
    streams = workload.thread_batch_streams(
        app, machine.rng.child("xgboost").stream("s")
    )
    run_to_completion(machine.engine, [spawn_app(system, app, streams)])
    linux_time = app.completion_time_us

    trace_path = Path(tempfile.gettempdir()) / "xgboost-linux.jsonl"
    n = tracer.dump(trace_path)
    print(f"recorded {n} faults on Linux 5.5 -> {trace_path}")
    print(f"linux run: {linux_time / 1000:.2f} ms, "
          f"mean fault stall {app.stats.fault_stall_us / max(1, app.stats.faults):.1f} µs")

    # -- replay on Canvas -------------------------------------------------
    machine2 = Machine(seed=5)
    workload2 = make_workload("xgboost", scale=0.2)
    system2, app2 = build_app(machine2, workload2, canvas=True)
    replay = replay_streams(load_trace(trace_path))
    run_to_completion(machine2.engine, [spawn_app(system2, app2, replay)])
    print(f"canvas replay: {app2.completion_time_us / 1000:.2f} ms, "
          f"mean fault stall "
          f"{app2.stats.fault_stall_us / max(1, app2.stats.faults):.1f} µs")
    print(f"speedup on the identical fault sequence: "
          f"{linux_time / app2.completion_time_us:.2f}x")


if __name__ == "__main__":
    main()
